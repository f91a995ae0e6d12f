package multiq

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"cpq/internal/rng"
)

func TestEngineeredConstruction(t *testing.T) {
	q := NewEngineered(0, 0, 4, 8)
	if q.C() != DefaultC || q.P() != 1 || q.Stickiness() != 4 || q.Buffer() != 8 {
		t.Fatalf("defaults: c=%d p=%d s=%d b=%d", q.C(), q.P(), q.Stickiness(), q.Buffer())
	}
	if q.Name() != "multiq-s4-b8" {
		t.Fatalf("name = %q, want multiq-s4-b8", q.Name())
	}
	if q := NewEngineered(8, 2, 2, 4); q.Name() != "multiq-c8-s2-b4" {
		t.Fatalf("name = %q, want multiq-c8-s2-b4", q.Name())
	}
	if q := NewEngineered(4, 1, -3, 0); q.Stickiness() != 1 || q.Buffer() != 1 {
		t.Fatalf("clamping: s=%d b=%d", q.Stickiness(), q.Buffer())
	}
	if _, isE := NewEngineered(4, 1, 4, 8).Handle().(*EHandle); !isE {
		t.Fatal("engineered queue handed out a plain handle")
	}
	if _, isE := New(4, 1).Handle().(*EHandle); isE {
		t.Fatal("plain queue handed out a buffered handle")
	}
}

// TestEngineeredDrainOracle is the drain-all multiset oracle of the ISSUE:
// concurrent workers insert and delete with buffering enabled, a final
// drain recovers the remainder (exercising the buffer-stealing sweep), and
// the deleted multiset must equal the inserted multiset exactly.
func TestEngineeredDrainOracle(t *testing.T) {
	const workers = 8
	q := NewEngineered(4, workers, 4, 8)
	const perWorker = 5000
	var wg sync.WaitGroup
	ins := make([][]uint64, workers)
	del := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.Handle()
			r := rng.New(uint64(w) + 11)
			for i := 0; i < perWorker; i++ {
				k := r.Uint64() % 1000000
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
		t.Fatalf("recovered %d of %d", len(got), len(all))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i := range all {
		if all[i] != got[i] {
			t.Fatalf("multiset mismatch at %d", i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

// TestEngineeredFlushVisibility proves the buffer-aware notion of
// emptiness: items held in a handle's insertion buffer are counted by Len
// immediately, invisible to the sub-queues until Flush, published to the
// sub-queues by Flush, and recoverable by another handle afterwards.
func TestEngineeredFlushVisibility(t *testing.T) {
	q := NewEngineered(2, 2, 4, 8)
	h := q.Handle().(*EHandle)
	h.Insert(3, 30)
	h.Insert(1, 10)
	h.Insert(2, 20)
	if q.Len() != 3 {
		t.Fatalf("Len = %d with 3 buffered items, want 3", q.Len())
	}
	subTotal := func() int {
		total := 0
		for _, s := range q.queues() {
			s.mu.Lock()
			total += s.len()
			s.mu.Unlock()
		}
		return total
	}
	if n := subTotal(); n != 0 {
		t.Fatalf("%d items in sub-queues before Flush, want 0 (buffer size is 8)", n)
	}
	if k, v, ok := h.PeekMin(); !ok || k != 1 || v != 10 {
		t.Fatalf("PeekMin over buffers = %d/%d/%v, want 1/10/true", k, v, ok)
	}
	h.Flush()
	if n := subTotal(); n != 3 {
		t.Fatalf("%d items in sub-queues after Flush, want 3", n)
	}
	if len(h.ins) != 0 || len(h.del) != 0 {
		t.Fatalf("buffers not empty after Flush: ins=%d del=%d", len(h.ins), len(h.del))
	}
	h2 := q.Handle()
	for want := uint64(1); want <= 3; want++ {
		k, _, ok := h2.DeleteMin()
		if !ok || k != want {
			t.Fatalf("post-Flush deletion = %d/%v, want %d", k, ok, want)
		}
	}
	if _, _, ok := h2.DeleteMin(); ok {
		t.Fatal("queue not empty after draining flushed items")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

// TestEngineeredSweepStealsBuffers: without any Flush, items buffered by
// one handle must still be found by another handle's DeleteMin (via the
// buffer-stealing sweep) — buffered items are never unreachable.
func TestEngineeredSweepStealsBuffers(t *testing.T) {
	q := NewEngineered(2, 2, 4, 8)
	h1 := q.Handle()
	h1.Insert(5, 50)
	h1.Insert(7, 70)
	h2 := q.Handle()
	got := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		k, _, ok := h2.DeleteMin()
		if !ok {
			t.Fatalf("DeleteMin %d found nothing despite buffered items", i)
		}
		got[k] = true
	}
	if !got[5] || !got[7] {
		t.Fatalf("stole %v, want {5, 7}", got)
	}
	if _, _, ok := h2.DeleteMin(); ok {
		t.Fatal("queue not empty after stealing both buffered items")
	}
}

// TestEngineeredDeletionBufferReturnedByFlush: a refill moves a batch into
// the deletion buffer; Flush must push the unserved remainder back so a
// single fresh handle can drain it from the sub-queues.
func TestEngineeredDeletionBufferReturnedByFlush(t *testing.T) {
	q := NewEngineered(1, 1, 1, 4) // one sub-queue: deterministic refill
	h := q.Handle().(*EHandle)
	for k := uint64(1); k <= 8; k++ {
		h.Insert(k, k)
	}
	h.Flush()
	if k, _, ok := h.DeleteMin(); !ok || k != 1 {
		t.Fatalf("first deletion = %d/%v, want 1", k, ok)
	}
	if len(h.del) != 3 {
		t.Fatalf("deletion buffer holds %d items after refill, want 3", len(h.del))
	}
	h.Flush()
	if len(h.del) != 0 {
		t.Fatalf("deletion buffer holds %d items after Flush", len(h.del))
	}
	if q.Len() != 7 {
		t.Fatalf("Len = %d after Flush, want 7", q.Len())
	}
	for want := uint64(2); want <= 8; want++ {
		k, _, ok := h.DeleteMin()
		if !ok || k != want {
			t.Fatalf("deletion = %d/%v, want %d", k, ok, want)
		}
	}
}

// TestEngineeredOwnBufferNotStarved: a handle whose insertion buffer holds
// the globally smallest key must serve it from the buffer rather than
// overtake it with larger sub-queue keys forever.
func TestEngineeredOwnBufferNotStarved(t *testing.T) {
	q := NewEngineered(2, 1, 4, 8)
	h := q.Handle().(*EHandle)
	for k := uint64(100); k < 120; k++ {
		h.Insert(k, k)
	}
	h.Flush()
	h.Insert(1, 1) // stays in the insertion buffer (b = 8)
	if k, _, ok := h.DeleteMin(); !ok || k != 1 {
		t.Fatalf("DeleteMin = %d/%v, want the buffered 1", k, ok)
	}
}

// TestEngineeredEmptinessDetectedUnderConcurrency mirrors the seed test:
// concurrent drainers of a small engineered queue must terminate and
// recover every item exactly once, racing the buffer-stealing sweep.
func TestEngineeredEmptinessDetectedUnderConcurrency(t *testing.T) {
	const workers = 8
	q := NewEngineered(4, workers, 4, 8)
	h := q.Handle()
	const n = 1000
	for k := uint64(0); k < n; k++ {
		h.Insert(k, k)
	}
	if f, ok := h.(*EHandle); ok {
		f.Flush()
	}
	var count atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := q.Handle()
			for {
				if _, _, ok := h.DeleteMin(); !ok {
					return
				}
				count.Add(1)
			}
		}()
	}
	wg.Wait()
	if count.Load() != n {
		t.Fatalf("deleted %d of %d", count.Load(), n)
	}
}

// TestEngineeredStickinessReusesSubqueue: with a single handle and no
// contention, s consecutive insert flushes must land in the same sub-queue.
func TestEngineeredStickinessReusesSubqueue(t *testing.T) {
	const s = 4
	q := NewEngineered(8, 1, s, 1) // b = 1: every insert flushes immediately
	h := q.Handle().(*EHandle)
	h.Insert(1, 1) // samples a fresh sticky target
	first := h.insQ
	for i := 0; i < s-1; i++ {
		h.Insert(uint64(i+2), 0)
		if h.insQ != first {
			t.Fatalf("flush %d moved to sub-queue %d, want sticky %d", i+2, h.insQ, first)
		}
	}
	if h.insLeft != 0 {
		t.Fatalf("insLeft = %d after %d flushes, want 0", h.insLeft, s)
	}
}
