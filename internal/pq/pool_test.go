package pq

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeQueue is a minimal Queue for pool tests: a mutex-guarded sorted-ish
// bag with buffering, flushing handles, so the tests can observe the
// pool's flush-on-release behaviour without dragging a real substrate in.
type fakeQueue struct {
	mu      sync.Mutex
	items   []Item
	handles atomic.Int64
	grownTo atomic.Int64 // high-water EnsureHandles argument
}

func (q *fakeQueue) Name() string { return "fake" }

func (q *fakeQueue) Handle() Handle {
	q.handles.Add(1)
	return &fakeHandle{q: q}
}

func (q *fakeQueue) EnsureHandles(p int) {
	for {
		cur := q.grownTo.Load()
		if int64(p) <= cur || q.grownTo.CompareAndSwap(cur, int64(p)) {
			return
		}
	}
}

func (q *fakeQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// fakeHandle buffers items locally (like the engineered MultiQueue's
// insertion buffer, scaled down) so an unreleased handle genuinely hides
// an item until Flush publishes it.
type fakeHandle struct {
	q   *fakeQueue
	buf []Item
}

func (h *fakeHandle) Insert(key, value uint64) {
	if len(h.buf) >= 4 {
		h.Flush()
	}
	h.buf = append(h.buf, Item{key, value})
}

func (h *fakeHandle) DeleteMin() (uint64, uint64, bool) {
	if n := len(h.buf); n > 0 {
		it := h.buf[n-1]
		h.buf = h.buf[:n-1]
		return it.Key, it.Value, true
	}
	h.q.mu.Lock()
	defer h.q.mu.Unlock()
	best, n := 0, len(h.q.items)
	if n == 0 {
		return 0, 0, false
	}
	for i := 1; i < n; i++ {
		if h.q.items[i].Key < h.q.items[best].Key {
			best = i
		}
	}
	it := h.q.items[best]
	h.q.items[best] = h.q.items[n-1]
	h.q.items = h.q.items[:n-1]
	return it.Key, it.Value, true
}

func (h *fakeHandle) Flush() {
	if len(h.buf) == 0 {
		return
	}
	h.q.mu.Lock()
	h.q.items = append(h.q.items, h.buf...)
	h.q.mu.Unlock()
	h.buf = h.buf[:0]
}

func TestPoolReuseAndGrowth(t *testing.T) {
	q := &fakeQueue{}
	p := NewPool(q, PoolOptions{MaxHandles: 4})
	h1 := p.Acquire()
	if got := p.Created(); got != 1 {
		t.Fatalf("Created after first Acquire = %d, want 1", got)
	}
	if got := q.grownTo.Load(); got != 1 {
		t.Fatalf("EnsureHandles high-water = %d, want 1", got)
	}
	p.Release(h1)
	h2 := p.Acquire()
	if h2 != h1 {
		t.Fatalf("Acquire after Release returned a new wrapper; want the recycled one")
	}
	if got := p.Created(); got != 1 {
		t.Fatalf("Created after reuse = %d, want 1 (reuse must not grow)", got)
	}
	h3 := p.Acquire()
	if h3 == h2 {
		t.Fatalf("second concurrent Acquire returned the live handle")
	}
	if got, want := p.Created(), 2; got != want {
		t.Fatalf("Created = %d, want %d", got, want)
	}
	if got := q.grownTo.Load(); got != 2 {
		t.Fatalf("EnsureHandles high-water = %d, want 2", got)
	}
	if got := p.Live(); got != 2 {
		t.Fatalf("Live = %d, want 2", got)
	}
	p.Release(h2)
	p.Release(h3)
	if got := p.Live(); got != 0 {
		t.Fatalf("Live after releases = %d, want 0", got)
	}
	if got := p.PeakLive(); got != 2 {
		t.Fatalf("PeakLive = %d, want 2", got)
	}
}

// TestPoolOverflowStack grows the pool to its cap by holding every handle
// at once, releases them all, then drains the free list again: each
// Acquire must return a distinct free wrapper, with no growth past the
// cap. (The name is from the overflow stack the pool kept beside its
// per-shard slots; the free list now holds every released handle.)
func TestPoolOverflowStack(t *testing.T) {
	q := &fakeQueue{}
	const n = 64
	p := NewPool(q, PoolOptions{MaxHandles: n})
	hs := make([]*PooledHandle, n)
	for i := range hs {
		hs[i] = p.Acquire()
	}
	if got := p.Created(); got != n {
		t.Fatalf("Created = %d, want %d", got, n)
	}
	for _, h := range hs {
		p.Release(h)
	}
	seen := map[*PooledHandle]bool{}
	for i := range hs {
		h := p.Acquire()
		if seen[h] {
			t.Fatalf("Acquire %d returned an already-live wrapper", i)
		}
		seen[h] = true
	}
	if got := p.Created(); got != n {
		t.Fatalf("Created after drain = %d, want %d (no growth past the warm-up)", got, n)
	}
	for h := range seen {
		p.Release(h)
	}
}

// TestPoolCapBlocksUntilRelease holds the cap while one Acquire waits
// about a second. The waiter must block without work of its own: the
// collector may run a cycle or two on its own schedule, not hundreds.
func TestPoolCapBlocksUntilRelease(t *testing.T) {
	q := &fakeQueue{}
	p := NewPool(q, PoolOptions{MaxHandles: 2})
	h1, h2 := p.Acquire(), p.Acquire()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := make(chan *PooledHandle)
	go func() { got <- p.Acquire() }()
	select {
	case h := <-got:
		t.Fatalf("Acquire at the cap returned %p without a Release", h)
	case <-time.After(time.Second):
	}
	runtime.ReadMemStats(&after)
	if n := after.NumGC - before.NumGC; n > 2 {
		t.Fatalf("%d GC cycles while one Acquire waited 1s at the cap, want <= 2", n)
	}
	p.Release(h1)
	select {
	case h := <-got:
		if h != h1 {
			t.Fatalf("capped Acquire returned a different wrapper than the released one")
		}
		p.Release(h)
	case <-time.After(2 * time.Second):
		t.Fatalf("Acquire still blocked after a Release")
	}
	if got := p.Created(); got != 2 {
		t.Fatalf("Created = %d, want cap 2", got)
	}
	p.Release(h2)
}

func TestPoolReleaseFlushesBuffers(t *testing.T) {
	q := &fakeQueue{}
	p := NewPool(q, PoolOptions{MaxHandles: 2})
	h := p.Acquire()
	h.Insert(7, 70)
	if got := q.len(); got != 0 {
		t.Fatalf("item published before Release; want it buffered in the handle")
	}
	p.Release(h)
	if got := q.len(); got != 1 {
		t.Fatalf("shared items after Release = %d, want 1 (Release must flush)", got)
	}
}

// TestPoolCloseReportsAcquired pins Release as mandatory: Close names
// the handles still acquired in its error, and is clean once every handle
// is back.
func TestPoolCloseReportsAcquired(t *testing.T) {
	p := NewPool(&fakeQueue{}, PoolOptions{MaxHandles: 2})
	p.Acquire()
	p.Acquire()
	err := p.Close()
	if err == nil || !strings.Contains(err.Error(), "2 handles still acquired") {
		t.Fatalf("Close with 2 handles acquired = %v, want an error naming 2", err)
	}

	q := &fakeQueue{}
	p = NewPool(q, PoolOptions{MaxHandles: 2})
	h := p.Acquire()
	h.Insert(42, 420)
	p.Release(h)
	if err := p.Close(); err != nil {
		t.Fatalf("Close with every handle released = %v, want nil", err)
	}
	if got := q.len(); got != 1 {
		t.Fatalf("shared items after Close = %d, want 1", got)
	}
}

func TestPoolMisusePanics(t *testing.T) {
	q := &fakeQueue{}
	p := NewPool(q, PoolOptions{MaxHandles: 2})
	h := p.Acquire()
	p.Release(h)
	mustPanic(t, "double Release", func() { p.Release(h) })
	mustPanic(t, "use after Release", func() { h.Insert(1, 1) })
	p2 := NewPool(&fakeQueue{}, PoolOptions{MaxHandles: 1})
	h2 := p2.Acquire()
	mustPanic(t, "cross-pool Release", func() { p.Release(h2) })
	p2.Release(h2)
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestPoolConcurrentChurn hammers Acquire/Release from many more
// goroutines than the cap, under -race in the make check matrix. At the
// end every item must be accounted for and the live count zero.
func TestPoolConcurrentChurn(t *testing.T) {
	q := &fakeQueue{}
	const cap, goroutines, rounds = 4, 16, 200
	p := NewPool(q, PoolOptions{MaxHandles: cap})
	var inserted, deleted atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				h := p.Acquire()
				h.Insert(uint64(g*rounds+r), 0)
				inserted.Add(1)
				if _, _, ok := h.DeleteMin(); ok {
					deleted.Add(1)
				}
				p.Release(h)
			}
		}(g)
	}
	wg.Wait()
	if got := p.Live(); got != 0 {
		t.Fatalf("Live after churn = %d, want 0", got)
	}
	if got := p.Created(); got > cap {
		t.Fatalf("Created = %d, want <= cap %d", got, cap)
	}
	// Conservation: everything inserted is either deleted or still in the
	// queue (buffers all flushed by Release).
	h := p.Acquire()
	remaining := uint64(0)
	for {
		if _, _, ok := h.DeleteMin(); !ok {
			break
		}
		remaining++
	}
	p.Release(h)
	if inserted.Load() != deleted.Load()+remaining {
		t.Fatalf("conservation: inserted=%d != deleted=%d + remaining=%d",
			inserted.Load(), deleted.Load(), remaining)
	}
}

// TestAcquireReleaseAllocs gates the hit path at zero allocations per
// Acquire/Release pair (the pool's headline constraint, same style as
// the telemetry and substrate alloc gates).
func TestAcquireReleaseAllocs(t *testing.T) {
	q := &fakeQueue{}
	p := NewPool(q, PoolOptions{MaxHandles: 1})
	p.Release(p.Acquire()) // warm: create the one handle outside the measurement
	allocs := testing.AllocsPerRun(1000, func() {
		h := p.Acquire()
		p.Release(h)
	})
	if allocs != 0 {
		t.Fatalf("Acquire/Release hit path allocates %.1f/op, want 0", allocs)
	}
}
