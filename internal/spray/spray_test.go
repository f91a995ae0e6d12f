package spray

import (
	"sort"
	"sync"
	"testing"

	"cpq/internal/rng"
)

func TestEmpty(t *testing.T) {
	q := New(4)
	h := q.Handle()
	if _, _, ok := h.DeleteMin(); ok {
		t.Fatal("DeleteMin on empty returned ok")
	}
	if q.Name() != "spray" {
		t.Fatalf("name = %q", q.Name())
	}
}

func TestGeometry(t *testing.T) {
	for _, p := range []int{0, 1, 2, 8, 64, 1024} {
		q := New(p)
		h, j := q.Geometry()
		if h < 1 || j < 1 {
			t.Fatalf("p=%d: degenerate geometry h=%d j=%d", p, h, j)
		}
		if p >= 1 && q.P() != p {
			t.Fatalf("P() = %d, want %d", q.P(), p)
		}
	}
	// Geometry must grow with P.
	h8, _ := New(8).Geometry()
	h1024, _ := New(1024).Geometry()
	if h1024 <= h8 {
		t.Fatalf("height does not grow with P: %d vs %d", h8, h1024)
	}
}

// TestGeometryValues pins the walk geometry (starting height, max jump)
// for each thread count, both at construction and after a pool grows a
// one-thread queue to the same count.
func TestGeometryValues(t *testing.T) {
	for _, tc := range []struct{ p, height, maxJump int }{
		{1, 2, 2},
		{2, 2, 4},
		{4, 3, 4},
		{8, 4, 4},
		{64, 7, 4},
		{1024, 11, 4},
	} {
		if h, j := New(tc.p).Geometry(); h != tc.height || j != tc.maxJump {
			t.Errorf("New(%d).Geometry() = (%d, %d), want (%d, %d)", tc.p, h, j, tc.height, tc.maxJump)
		}
		q := New(1)
		q.EnsureHandles(tc.p)
		if h, j := q.Geometry(); h != tc.height || j != tc.maxJump {
			t.Errorf("New(1).EnsureHandles(%d): Geometry() = (%d, %d), want (%d, %d)", tc.p, h, j, tc.height, tc.maxJump)
		}
	}
}

func TestSingleThreadDrainComplete(t *testing.T) {
	q := New(1)
	h := q.Handle()
	r := rng.New(1)
	const n = 3000
	want := make([]uint64, n)
	for i := range want {
		k := r.Uint64() % 999
		want[i] = k
		h.Insert(k, k)
	}
	got := make([]uint64, 0, n)
	for {
		k, _, ok := h.DeleteMin()
		if !ok {
			break
		}
		got = append(got, k)
	}
	if len(got) != n {
		t.Fatalf("drained %d of %d", len(got), n)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("multiset mismatch at %d", i)
		}
	}
}

func TestRelaxedButBounded(t *testing.T) {
	// With P=4 and 10k items, sprayed deletions must come from the head
	// region: each deleted key should be among the ~P log^3 P smallest of
	// the moment. We test a generous bound: rank < 4096.
	q := New(4)
	h := q.Handle()
	const n = 10000
	for k := uint64(0); k < n; k++ {
		h.Insert(k, k)
	}
	// Keys are 0..n-1 inserted in order; deleting m items one at a time,
	// every deletion should return a key < deletedSoFar + 4096.
	for i := 0; i < 5000; i++ {
		k, _, ok := h.DeleteMin()
		if !ok {
			t.Fatalf("unexpected empty at %d", i)
		}
		if k >= uint64(i)+4096 {
			t.Fatalf("deletion %d returned key %d — far beyond the head region", i, k)
		}
	}
}

func TestValuesFollowKeys(t *testing.T) {
	q := New(2)
	h := q.Handle()
	for k := uint64(0); k < 100; k++ {
		h.Insert(k, k*3)
	}
	for i := 0; i < 100; i++ {
		k, v, ok := h.DeleteMin()
		if !ok || v != k*3 {
			t.Fatalf("got %d/%d/%v", k, v, ok)
		}
	}
}

func TestPeekMin(t *testing.T) {
	q := New(2)
	h := q.Handle().(*Handle)
	if _, _, ok := h.PeekMin(); ok {
		t.Fatal("PeekMin on empty returned ok")
	}
	h.Insert(8, 80)
	h.Insert(3, 30)
	if k, v, ok := h.PeekMin(); !ok || k != 3 || v != 30 {
		t.Fatalf("PeekMin = %d/%d/%v", k, v, ok)
	}
}

func TestConcurrentMultisetPreserved(t *testing.T) {
	const workers = 8
	q := New(workers)
	const perWorker = 4000
	var wg sync.WaitGroup
	ins := make([][]uint64, workers)
	del := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.Handle()
			r := rng.New(uint64(w) + 13)
			for i := 0; i < perWorker; i++ {
				k := r.Uint64() % 100000
				h.Insert(k, k)
				ins[w] = append(ins[w], k)
				if i%2 == 0 {
					if k, _, ok := h.DeleteMin(); ok {
						del[w] = append(del[w], k)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var all, got []uint64
	for w := 0; w < workers; w++ {
		all = append(all, ins[w]...)
		got = append(got, del[w]...)
	}
	h := q.Handle()
	for {
		k, _, ok := h.DeleteMin()
		if !ok {
			break
		}
		got = append(got, k)
	}
	if len(got) != len(all) {
		t.Fatalf("recovered %d of %d items", len(got), len(all))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i := range all {
		if all[i] != got[i] {
			t.Fatalf("multiset mismatch at %d: %d vs %d", i, all[i], got[i])
		}
	}
}

func TestConcurrentNoDuplicateDeletes(t *testing.T) {
	const workers = 8
	q := New(workers)
	h := q.Handle()
	const n = 20000
	for k := uint64(0); k < n; k++ {
		h.Insert(k, k)
	}
	out := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.Handle()
			for {
				k, _, ok := h.DeleteMin()
				if !ok {
					return
				}
				out[w] = append(out[w], k)
			}
		}(w)
	}
	wg.Wait()
	seen := make([]bool, n)
	total := 0
	for _, ks := range out {
		for _, k := range ks {
			if seen[k] {
				t.Fatalf("key %d deleted twice", k)
			}
			seen[k] = true
			total++
		}
	}
	if total != n {
		t.Fatalf("deleted %d of %d", total, n)
	}
}
