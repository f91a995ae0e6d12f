package multiq

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cpq/internal/pq"
	"cpq/internal/rng"
)

func TestConstruction(t *testing.T) {
	q := New(0, 0)
	if q.C() != DefaultC || q.P() != 1 || q.NumQueues() != DefaultC {
		t.Fatalf("defaults: c=%d p=%d n=%d", q.C(), q.P(), q.NumQueues())
	}
	q = New(2, 8)
	if q.NumQueues() != 16 {
		t.Fatalf("NumQueues = %d, want 16", q.NumQueues())
	}
	if q.Name() != "multiq" {
		t.Fatalf("name = %q", q.Name())
	}
}

func TestEmpty(t *testing.T) {
	q := New(4, 2)
	h := q.Handle()
	if _, _, ok := h.DeleteMin(); ok {
		t.Fatal("DeleteMin on empty returned ok")
	}
	if _, _, ok := q.Handle().(*Handle).PeekMin(); ok {
		t.Fatal("PeekMin on empty returned ok")
	}
}

func TestSingleQueueIsStrict(t *testing.T) {
	// c=1, p=1 → a single sub-queue; delete order must be exactly sorted.
	q := New(1, 1)
	h := q.Handle()
	r := rng.New(1)
	const n = 2000
	want := make([]uint64, n)
	for i := range want {
		k := r.Uint64() % 500
		want[i] = k
		h.Insert(k, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := 0; i < n; i++ {
		k, _, ok := h.DeleteMin()
		if !ok || k != want[i] {
			t.Fatalf("deletion %d = %d/%v, want %d", i, k, ok, want[i])
		}
	}
}

func TestDrainRecoversEverything(t *testing.T) {
	q := New(4, 4)
	h := q.Handle()
	r := rng.New(2)
	const n = 10000
	want := make([]uint64, n)
	for i := range want {
		k := r.Uint64() % 100000
		want[i] = k
		h.Insert(k, k+7)
	}
	got := make([]uint64, 0, n)
	for {
		k, v, ok := h.DeleteMin()
		if !ok {
			break
		}
		if v != k+7 {
			t.Fatalf("value mismatch: %d/%d", k, v)
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

func TestDeletionsAreFromHeadRegion(t *testing.T) {
	// With c*p = 8 queues of ~1250 items each, a min-of-2 deletion should
	// return one of the few smallest items of some queue; over an ordered
	// prefill the i-th deletion must stay well below i + slack where slack
	// covers the per-queue imbalance.
	q := New(2, 4)
	h := q.Handle()
	const n = 10000
	for k := uint64(0); k < n; k++ {
		h.Insert(k, k)
	}
	for i := 0; i < n/2; i++ {
		k, _, ok := h.DeleteMin()
		if !ok {
			t.Fatalf("empty at %d", i)
		}
		if k > uint64(i)+2000 {
			t.Fatalf("deletion %d returned %d — not from head region", i, k)
		}
	}
}

func TestPeekMin(t *testing.T) {
	q := New(4, 2)
	h := q.Handle().(*Handle)
	h.Insert(50, 1)
	h.Insert(10, 2)
	h.Insert(30, 3)
	k, v, ok := h.PeekMin()
	if !ok || k != 10 || v != 2 {
		t.Fatalf("PeekMin = %d/%d/%v", k, v, ok)
	}
	if q.Len() != 3 {
		t.Fatal("peek removed an item")
	}
}

func TestMinCacheTracksHeap(t *testing.T) {
	q := New(1, 1)
	h := q.Handle()
	h.Insert(5, 0)
	if m := q.queues()[0].min.Load(); m != 5 {
		t.Fatalf("cached min = %d, want 5", m)
	}
	h.Insert(3, 0)
	if m := q.queues()[0].min.Load(); m != 3 {
		t.Fatalf("cached min = %d, want 3", m)
	}
	h.DeleteMin()
	if m := q.queues()[0].min.Load(); m != 5 {
		t.Fatalf("cached min = %d, want 5", m)
	}
	h.DeleteMin()
	if m := q.queues()[0].min.Load(); m != uint64(emptyKey) {
		t.Fatalf("cached min = %d, want emptyKey", m)
	}
}

func TestConcurrentMultisetPreserved(t *testing.T) {
	const workers = 8
	q := New(4, workers)
	const perWorker = 5000
	var wg sync.WaitGroup
	ins := make([][]uint64, workers)
	del := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.Handle()
			r := rng.New(uint64(w) + 5)
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

func TestEmptinessDetectedUnderConcurrency(t *testing.T) {
	// All workers drain a small queue; every item must be returned exactly
	// once and all workers must terminate (emptiness must be detected).
	const workers = 8
	q := New(4, workers)
	h := q.Handle()
	const n = 1000
	for k := uint64(0); k < n; k++ {
		h.Insert(k, k)
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

// TestInsertBlocksWhenEveryLockIsHeld pins the bound on an insert's
// try-locks (lockAny), the fix for an insert livelock: with every
// sub-queue lock held elsewhere, a plain Insert, a plain InsertN and an
// engineered InsertN that flushes at once (>= 2b items) each park on one
// sub-queue's mutex instead of spinning, and complete once the locks are
// released.
func TestInsertBlocksWhenEveryLockIsHeld(t *testing.T) {
	batch := func(n int) []pq.KV {
		kvs := make([]pq.KV, n)
		for i := range kvs {
			kvs[i] = pq.KV{Key: uint64(n - i), Value: uint64(i)}
		}
		return kvs
	}
	for _, tc := range []struct {
		name  string
		q     *Queue
		items int
		call  func(pq.Handle)
	}{
		{"insert", New(1, 2), 1, func(h pq.Handle) { h.Insert(7, 7) }},
		{"insertN", New(1, 2), 8, func(h pq.Handle) { h.(*Handle).InsertN(batch(8)) }},
		{"engineered-insertN", NewEngineered(1, 2, 4, 8), 16,
			func(h pq.Handle) { h.(*EHandle).InsertN(batch(16)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			qs := tc.q.queues()
			for _, s := range qs {
				s.mu.Lock()
			}
			h := tc.q.Handle()
			done := make(chan struct{})
			go func() {
				tc.call(h)
				close(done)
			}()
			parked := false
			for deadline := time.Now().Add(10 * time.Second); !parked && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				parked = parkedInLockAny()
			}
			select {
			case <-done:
				t.Error("insert returned while every sub-queue lock was held")
			default:
			}
			for _, s := range qs {
				s.mu.Unlock()
			}
			<-done
			if !parked {
				t.Fatal("insert never parked on a sub-queue lock: it spun on try-locks")
			}
			if got := tc.q.Len(); got != tc.items {
				t.Fatalf("Len = %d after the insert, want %d", got, tc.items)
			}
			d := tc.q.Handle()
			for i := 0; i < tc.items; i++ {
				if _, _, ok := d.DeleteMin(); !ok {
					t.Fatalf("drain found %d items, want %d", i, tc.items)
				}
			}
			if _, _, ok := d.DeleteMin(); ok {
				t.Fatalf("drain found more than %d items", tc.items)
			}
		})
	}
}

// parkedInLockAny reports whether a goroutine is parked on a sub-queue
// mutex inside lockAny, read from a dump of every goroutine's stack.
func parkedInLockAny() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[sync.Mutex.Lock") && strings.Contains(g, "multiq.lockAny(") {
			return true
		}
	}
	return false
}
