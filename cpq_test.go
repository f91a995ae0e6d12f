package cpq

import (
	"sort"
	"sync"
	"testing"

	"cpq/internal/rng"
)

func TestRegistryKnowsAllNames(t *testing.T) {
	for _, name := range Names() {
		q, err := NewQueue(name, Options{Threads: 4})
		if err != nil {
			t.Fatalf("NewQueue(%q): %v", name, err)
		}
		if q.Name() == "" {
			t.Fatalf("queue %q has empty Name()", name)
		}
	}
}

func TestRegistryNameMatchesIdentifier(t *testing.T) {
	// For the paper's seven variants, the constructed queue must report
	// exactly the identifier used in the figures.
	for _, name := range PaperNames() {
		q, err := NewQueue(name, Options{Threads: 8})
		if err != nil {
			t.Fatalf("NewQueue(%q): %v", name, err)
		}
		if q.Name() != name {
			t.Fatalf("NewQueue(%q).Name() = %q", name, q.Name())
		}
	}
}

func TestRegistryParameterized(t *testing.T) {
	q, err := NewQueue("klsm64", Options{Threads: 2})
	if err != nil || q.Name() != "klsm64" {
		t.Fatalf("klsm64: %v, %v", q, err)
	}
	if _, err := NewQueue("klsmX", Options{Threads: 2}); err == nil {
		t.Fatal("bad klsm spec accepted")
	}
	if _, err := NewQueue("slsm0", Options{Threads: 2}); err == nil {
		t.Fatal("slsm0 accepted")
	}
	if _, err := NewQueue("nope", Options{Threads: 2}); err == nil {
		t.Fatal("unknown queue accepted")
	}
	if q, err := NewQueue("multiq2", Options{Threads: 3}); err != nil || q.Name() != "multiq" {
		t.Fatalf("multiq2: %v, %v", q, err)
	}
	if q, err := NewQueue(" LINDEN ", Options{Threads: 0}); err != nil || q.Name() != "linden" {
		t.Fatalf("case/space-insensitive parse failed: %v", err)
	}
}

func TestSortNames(t *testing.T) {
	names := []string{"zzz", "multiq", "klsm4096", "aaa", "linden", "klsm128"}
	SortNames(names)
	want := []string{"klsm128", "klsm4096", "linden", "multiq", "aaa", "zzz"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("SortNames = %v, want %v", names, want)
		}
	}
}

// TestEveryQueueBasicContract runs the same sequential contract over every
// registered implementation: fresh queue is empty; inserted items come back
// with their values; the queue is empty after draining; and a quiescent
// single-handle drain of a strict queue is sorted.
func TestEveryQueueBasicContract(t *testing.T) {
	strict := map[string]bool{"linden": true, "globallock": true, "lotan": true, "hunt": true, "mound": true, "cbpq": true, "locksl": true, "dlsm": true}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			q, err := NewQueue(name, Options{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			h := q.Handle()
			if _, _, ok := h.DeleteMin(); ok {
				t.Fatal("fresh queue not empty")
			}
			r := rng.New(7)
			const n = 2000
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = r.Uint64() % 10000
				h.Insert(keys[i], keys[i]*2)
			}
			got := make([]uint64, 0, n)
			for {
				k, v, ok := h.DeleteMin()
				if !ok {
					break
				}
				if v != k*2 {
					t.Fatalf("value mismatch: key %d value %d", k, v)
				}
				got = append(got, k)
			}
			if len(got) != n {
				t.Fatalf("drained %d of %d", len(got), n)
			}
			if strict[name] && !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Fatal("strict queue drained out of order")
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			for i := range keys {
				if keys[i] != got[i] {
					t.Fatalf("multiset mismatch at %d", i)
				}
			}
			if _, _, ok := h.DeleteMin(); ok {
				t.Fatal("queue not empty after drain")
			}
		})
	}
}

// TestEveryQueueConcurrentSmoke hammers each implementation with a short
// mixed workload under the race detector and verifies nothing is lost.
func TestEveryQueueConcurrentSmoke(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			const workers = 4
			q, err := NewQueue(name, Options{Threads: workers})
			if err != nil {
				t.Fatal(err)
			}
			var inserted, deleted sync.Map
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := q.Handle()
					r := rng.New(uint64(w) + 91)
					for i := 0; i < 1500; i++ {
						k := r.Uint64() // unique with overwhelming probability
						h.Insert(k, k)
						inserted.Store(k, true)
						if i%2 == 0 {
							if k, _, ok := h.DeleteMin(); ok {
								if _, dup := deleted.LoadOrStore(k, true); dup {
									t.Errorf("key %d deleted twice", k)
									return
								}
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			h := q.Handle()
			for {
				k, _, ok := h.DeleteMin()
				if !ok {
					break
				}
				if _, dup := deleted.LoadOrStore(k, true); dup {
					t.Fatalf("key %d deleted twice during drain", k)
				}
			}
			count := 0
			inserted.Range(func(k, _ any) bool {
				if _, ok := deleted.Load(k); !ok {
					t.Fatalf("key %v lost", k)
				}
				count++
				return true
			})
			deletedCount := 0
			deleted.Range(func(any, any) bool { deletedCount++; return true })
			if deletedCount != count {
				t.Fatalf("deleted %d keys but inserted %d", deletedCount, count)
			}
		})
	}
}

func TestRegistryEngineeredMultiQueue(t *testing.T) {
	q, err := NewQueue("multiq-s4-b8", Options{Threads: 4})
	if err != nil || q.Name() != "multiq-s4-b8" {
		t.Fatalf("multiq-s4-b8: %v, %v", q, err)
	}
	q, err = NewQueue("multiq-c8-s2-b4", Options{Threads: 2})
	if err != nil || q.Name() != "multiq-c8-s2-b4" {
		t.Fatalf("multiq-c8-s2-b4: %v, %v", q, err)
	}
	// Partial specs default the omitted parameters (c=4, s=1, b=1).
	q, err = NewQueue("multiq-b8", Options{Threads: 1})
	if err != nil || q.Name() != "multiq-s1-b8" {
		t.Fatalf("multiq-b8: %v, %v", q, err)
	}
	for _, bad := range []string{"multiq-", "multiq-x4", "multiq-s0", "multiq-s", "multiq-s4-b8-z1"} {
		if _, err := NewQueue(bad, Options{Threads: 1}); err == nil {
			t.Fatalf("NewQueue(%q) accepted a bad engineered spec", bad)
		}
	}
}

// TestEngineeredMatchesSeedSemantics drains engineered and seed MultiQueues
// loaded with the same items: both must return the same multiset.
func TestEngineeredMatchesSeedSemantics(t *testing.T) {
	seedQ, _ := NewQueue("multiq", Options{Threads: 2})
	engQ, _ := NewQueue("multiq-s4-b8", Options{Threads: 2})
	r := rng.New(99)
	var keys []uint64
	for i := 0; i < 3000; i++ {
		keys = append(keys, r.Uint64()%5000)
	}
	drain := func(q Queue) []uint64 {
		h := q.Handle()
		for _, k := range keys {
			h.Insert(k, k)
		}
		var out []uint64
		for {
			k, _, ok := h.DeleteMin()
			if !ok {
				break
			}
			out = append(out, k)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	a, b := drain(seedQ), drain(engQ)
	if len(a) != len(keys) || len(b) != len(keys) {
		t.Fatalf("drained %d/%d of %d", len(a), len(b), len(keys))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("multiset mismatch at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
