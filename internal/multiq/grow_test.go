package multiq

import (
	"sync"
	"testing"
	"unsafe"
)

// TestSubqueueFillsOneCacheLine pins the sub-queue layout: each one is
// exactly one 64-byte cache line and starts on a line boundary, the ones
// EnsureHandles adds included, so no two sub-queues share a line.
func TestSubqueueFillsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(subqueue{}); size != 64 {
		t.Fatalf("unsafe.Sizeof(subqueue{}) = %d, want 64", size)
	}
	q := New(4, 2)
	q.EnsureHandles(5)
	for i, s := range q.queues() {
		if addr := uintptr(unsafe.Pointer(s)); addr%64 != 0 {
			t.Fatalf("sub-queue %d of %d starts at %#x, not on a 64-byte boundary",
				i, q.NumQueues(), addr)
		}
	}
}

// TestEnsureHandlesGrowsSubqueues checks the Grower contract: the c·P
// sizing rule tracks the requested handle count, existing sub-queues (and
// their items) survive growth, and shrinking requests are ignored.
func TestEnsureHandlesGrowsSubqueues(t *testing.T) {
	q := New(2, 2)
	if got := q.NumQueues(); got != 4 {
		t.Fatalf("NumQueues = %d, want 4", got)
	}
	h := q.Handle()
	for k := uint64(0); k < 100; k++ {
		h.Insert(k, k)
	}
	q.EnsureHandles(5)
	if got := q.NumQueues(); got != 10 {
		t.Fatalf("NumQueues after EnsureHandles(5) = %d, want 10", got)
	}
	if got := q.P(); got != 5 {
		t.Fatalf("P after growth = %d, want 5", got)
	}
	q.EnsureHandles(3) // never shrinks
	if got := q.NumQueues(); got != 10 {
		t.Fatalf("NumQueues after EnsureHandles(3) = %d, want 10 (no shrink)", got)
	}
	if got := q.Len(); got != 100 {
		t.Fatalf("Len after growth = %d, want 100 (items must survive)", got)
	}
	for k := uint64(0); k < 100; k++ {
		if _, _, ok := h.DeleteMin(); !ok {
			t.Fatalf("DeleteMin %d reported empty with items present after growth", k)
		}
	}
	if _, _, ok := h.DeleteMin(); ok {
		t.Fatalf("DeleteMin found an item in an empty grown queue")
	}
}

// TestGrowthUnderConcurrentOps drives inserts/deletes while another
// goroutine repeatedly grows the sub-queue set, then checks conservation.
// The interesting failure mode is the emptiness oracle missing items that
// landed in freshly published sub-queues (sweepSubqueues must retry when
// the set moves); run under -race in the make check matrix.
func TestGrowthUnderConcurrentOps(t *testing.T) {
	for _, engineered := range []bool{false, true} {
		q := New(2, 1)
		if engineered {
			q = NewEngineered(2, 1, 4, 8)
		}
		const workers, ops = 4, 2000
		var wg sync.WaitGroup
		inserted := workers * ops
		deleted := make([]int, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := q.Handle()
				for i := 0; i < ops; i++ {
					h.Insert(uint64(w*ops+i), 0)
					if i%3 == 0 {
						if _, _, ok := h.DeleteMin(); ok {
							deleted[w]++
						}
					}
				}
				if f, ok := h.(interface{ Flush() }); ok {
					f.Flush()
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 2; p <= 12; p++ {
				q.EnsureHandles(p)
			}
		}()
		wg.Wait()
		total := 0
		for _, d := range deleted {
			total += d
		}
		if got, want := q.Len(), inserted-total; got != want {
			t.Fatalf("engineered=%v: Len=%d after churn, want %d (inserted %d, deleted %d)",
				engineered, got, want, inserted, total)
		}
		// Drain through a fresh handle: every remaining item must be
		// reachable even if it sits in a grown sub-queue.
		h := q.Handle()
		drained := 0
		for {
			if _, _, ok := h.DeleteMin(); !ok {
				break
			}
			drained++
		}
		if drained != inserted-total {
			t.Fatalf("engineered=%v: drained %d, want %d", engineered, drained, inserted-total)
		}
	}
}
