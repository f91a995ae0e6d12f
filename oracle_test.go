package cpq

import (
	"container/heap"
	"testing"
	"testing/quick"

	"cpq/internal/rng"
)

// oracleHeap is a reference min-heap built on container/heap, used to
// property-test every strict queue for exact sequential equivalence and
// every relaxed queue for its relaxation bound.
type oracleHeap []Item

func (h oracleHeap) Len() int            { return len(h) }
func (h oracleHeap) Less(i, j int) bool  { return h[i].Key < h[j].Key }
func (h oracleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x interface{}) { *h = append(*h, x.(Item)) }
func (h *oracleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// strictQueues are the implementations with exact sequential semantics:
// a single-handle run must behave identically to a binary heap (up to
// tie-breaking among equal keys, so we compare keys only).
var strictQueues = []string{"globallock", "linden", "lotan", "hunt", "mound", "cbpq", "locksl", "dlsm"}

func TestStrictQueuesMatchOracleProperty(t *testing.T) {
	for _, name := range strictQueues {
		name := name
		t.Run(name, func(t *testing.T) {
			if err := quick.Check(func(seed uint64, opsRaw []uint16) bool {
				q, err := NewQueue(name, Options{Threads: 1})
				if err != nil {
					t.Fatal(err)
				}
				h := q.Handle()
				var oracle oracleHeap
				r := rng.New(seed)
				for _, raw := range opsRaw {
					if raw%3 != 0 || oracle.Len() == 0 {
						key := uint64(raw) % 128 // heavy duplicates
						value := r.Uint64()
						h.Insert(key, value)
						heap.Push(&oracle, Item{Key: key, Value: value})
					} else {
						k, _, ok := h.DeleteMin()
						want := heap.Pop(&oracle).(Item)
						if !ok || k != want.Key {
							return false
						}
					}
				}
				// Drain both; key sequences must agree exactly.
				for oracle.Len() > 0 {
					k, _, ok := h.DeleteMin()
					want := heap.Pop(&oracle).(Item)
					if !ok || k != want.Key {
						return false
					}
				}
				_, _, ok := h.DeleteMin()
				return !ok
			}, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRelaxedQueuesBoundedProperty checks the advertised relaxation bound
// of single-handle runs: the SLSM and k-LSM skip at most k live items per
// deletion. (Spray and MultiQueue publish no bound usable here.)
func TestRelaxedQueuesBoundedProperty(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bound int // max items a single-handle deletion may skip
	}{
		{"klsm64", 64},
		{"slsm32", 32},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if err := quick.Check(func(seed uint64) bool {
				q, err := NewQueue(tc.name, Options{Threads: 1})
				if err != nil {
					t.Fatal(err)
				}
				h := q.Handle()
				var oracle oracleHeap
				r := rng.New(seed)
				for i := 0; i < 3000; i++ {
					if r.Uintn(2) == 0 || oracle.Len() == 0 {
						key := r.Uint64() % 100000
						h.Insert(key, 0)
						heap.Push(&oracle, Item{Key: key})
					} else {
						k, _, ok := h.DeleteMin()
						if !ok {
							return false
						}
						// Count oracle items strictly smaller than k: must
						// be <= bound. Then remove the matching key.
						smaller := 0
						found := false
						for j := range oracle {
							if oracle[j].Key < k {
								smaller++
							}
							if oracle[j].Key == k {
								found = true
							}
						}
						if !found || smaller > tc.bound {
							return false
						}
						removeKey(&oracle, k)
					}
				}
				return true
			}, &quick.Config{MaxCount: 10}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func removeKey(h *oracleHeap, key uint64) {
	for j := range *h {
		if (*h)[j].Key == key {
			heap.Remove(h, j)
			return
		}
	}
}

// TestValuesPreservedProperty: for every queue, values travel with keys —
// checked by inserting value = f(key) and validating on deletion.
func TestValuesPreservedProperty(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			q, err := NewQueue(name, Options{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			h := q.Handle()
			r := rng.New(99)
			for i := 0; i < 5000; i++ {
				k := r.Uint64() % 1 << 20
				h.Insert(k, k^0xabcdef)
				if i%3 == 2 {
					k, v, ok := h.DeleteMin()
					if ok && v != k^0xabcdef {
						t.Fatalf("value corrupted: key %d value %d", k, v)
					}
				}
			}
			for {
				k, v, ok := h.DeleteMin()
				if !ok {
					break
				}
				if v != k^0xabcdef {
					t.Fatalf("value corrupted on drain: key %d value %d", k, v)
				}
			}
		})
	}
}
