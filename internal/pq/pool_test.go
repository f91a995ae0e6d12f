package pq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeQueue is a minimal Queue for pool tests: a mutex-guarded sorted-ish
// bag with buffering, flushing handles, so the tests can observe the
// pool's flush-on-release and flush-on-steal behaviour without dragging a
// real substrate in.
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

// fakeHandle buffers one item locally (like the engineered MultiQueue's
// insertion buffer, scaled down) so an abandoned handle genuinely hides an
// item until Flush recovers it.
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

func TestPoolCapBlocksUntilRelease(t *testing.T) {
	q := &fakeQueue{}
	p := NewPool(q, PoolOptions{MaxHandles: 2})
	h1, h2 := p.Acquire(), p.Acquire()
	got := make(chan *PooledHandle)
	go func() { got <- p.Acquire() }()
	select {
	case h := <-got:
		t.Fatalf("Acquire at the cap returned %p without a Release", h)
	case <-time.After(20 * time.Millisecond):
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

// TestPoolStealsAbandoned is the core reclamation contract: a goroutine
// that exits without Release must not leak its handle or the items the
// handle buffers. Run with -race in the make check matrix.
func TestPoolStealsAbandoned(t *testing.T) {
	q := &fakeQueue{}
	p := NewPool(q, PoolOptions{MaxHandles: 2})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := p.Acquire()
		h.Insert(42, 420) // buffered, not yet shared
		// exit without Release: abandonment
	}()
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for p.Steals() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never reclaimed the abandoned handle (steals=0, live=%d)", p.Live())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := p.Live(); got != 0 {
		t.Fatalf("Live after steal = %d, want 0", got)
	}
	if got := q.len(); got != 1 {
		t.Fatalf("shared items after steal = %d, want 1 (steal must flush the buffer)", got)
	}
	// The stolen wrapper must be reusable.
	h := p.Acquire()
	if got := p.Created(); got != 1 {
		t.Fatalf("Created after steal+reacquire = %d, want 1 (the stolen handle must be recycled)", got)
	}
	if k, _, ok := h.DeleteMin(); !ok || k != 42 {
		t.Fatalf("DeleteMin after steal = (%d,%v), want the recovered item 42", k, ok)
	}
	p.Release(h)
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
// goroutines than the cap, with occasional abandonment, under -race in
// the make check matrix. At the end every handle must be recoverable and
// the live count zero.
func TestPoolConcurrentChurn(t *testing.T) {
	q := &fakeQueue{}
	const cap, goroutines, rounds = 4, 16, 200
	p := NewPool(q, PoolOptions{MaxHandles: cap})
	var inserted, deleted atomic.Uint64
	var abandoned atomic.Uint64
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
				if g == 0 && r%50 == 49 {
					abandoned.Add(1) // drop h without Release
					continue
				}
				p.Release(h)
			}
		}(g)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for p.Steals() < abandoned.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("steals=%d never caught up with abandoned=%d", p.Steals(), abandoned.Load())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := p.Live(); got != 0 {
		t.Fatalf("Live after churn = %d, want 0", got)
	}
	if got := p.Created(); got > cap {
		t.Fatalf("Created = %d, want <= cap %d", got, cap)
	}
	// Conservation: everything inserted is either deleted or still in the
	// queue (buffers all flushed by Release/steal).
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

// TestPoolOverflowStack drives enough handles through Release that shard
// slots displace into the overflow stack, then drains them all back.
func TestPoolOverflowStack(t *testing.T) {
	q := &fakeQueue{}
	const n = 64
	p := NewPool(q, PoolOptions{MaxHandles: n})
	// Warm the pool: hold n handles at once, so it grows to its cap.
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
