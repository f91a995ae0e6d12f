// Handle pool: the handle lifecycle layered over every Queue.
//
// The paper's harness gives each of its P threads one Handle for the whole
// run. A server that serves each connection (or request) from its own
// goroutine has many more goroutines than that, each holding a handle for
// a while. Pool bridges the two: a bounded set of real Handles is recycled
// through Acquire/Release, so the structures underneath still see "P
// threads with thread-local state" while callers come and go.
//
// The layout is one mutex over a LIFO slice of free handles, preallocated
// to the cap so the hit path never allocates. One lock is enough because
// callers acquire rarely relative to the work they do with a handle: pqd
// acquires once per connection, the churn benchmark once per 64-op burst.
// Growth runs under the same lock, calling Grower first so layout-elastic
// queues are sized for the handle before it exists. At the cap, Acquire
// blocks on a condition variable that Release signals.
//
// Release is mandatory, the way Unlock is: a handle that is never released
// stays acquired (its buffered items unreachable, its slot under the cap
// used up), and Close reports how many handles are still acquired.
package pq

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Grower is implemented by queues whose internal layout is sized by the
// number of handles in use — the MultiQueue's c·P sub-queue array, the
// SprayList's walk geometry. EnsureHandles grows the layout to accommodate
// p concurrent handles; it never shrinks, is idempotent, and is safe to
// call while other handles operate. The pool calls it before creating the
// p-th handle.
type Grower interface {
	EnsureHandles(p int)
}

// PoolOptions configures NewPool. The zero value is usable: the cap
// defaults to a small multiple of GOMAXPROCS.
type PoolOptions struct {
	// MaxHandles caps how many handles the pool will ever create. At the
	// cap, Acquire waits for a Release instead of growing. <= 0 selects
	// 4·GOMAXPROCS.
	MaxHandles int
}

// defaultMaxFactor sizes the default handle cap: enough concurrency
// headroom over GOMAXPROCS that blocking structures keep their lock handoff
// chains busy, small enough that relaxation bounds (kP) stay tight.
const defaultMaxFactor = 4

// Pool recycles the Handles of one Queue. All methods are safe for
// concurrent use.
type Pool struct {
	q   Queue
	max int

	mu      sync.Mutex
	freed   sync.Cond       // signalled by Release; Acquire waits on it at the cap
	free    []*PooledHandle // LIFO; capacity max, so Release never allocates
	live    int             // currently acquired handles
	peak    int             // high-water mark of live (feeds dynamic kP)
	created int             // handles ever created (≤ max)
	closed  bool
}

// PooledHandle wraps one inner Handle for its trips through the pool. It
// implements Handle, Flusher, Peeker, BatchInserter, BatchDeleter and
// Committer, delegating through the capability-checked helpers, so callers
// use it exactly like a plain Handle between Acquire and Release. Like the
// Handle it wraps, it must not be used by two goroutines at once.
type PooledHandle struct {
	pool  *Pool
	inner Handle
	live  atomic.Bool // between Acquire and Release
}

// NewPool builds a handle pool over q. The queue may be freshly
// constructed or already in use; handles the caller obtained directly from
// q.Handle() are unaffected (but do not count against the pool's cap or
// live count, so mixed use loosens the dynamic kP accounting).
func NewPool(q Queue, opts PoolOptions) *Pool {
	maxH := opts.MaxHandles
	if maxH <= 0 {
		maxH = defaultMaxFactor * runtime.GOMAXPROCS(0)
	}
	p := &Pool{q: q, max: maxH, free: make([]*PooledHandle, 0, maxH)}
	p.freed.L = &p.mu
	return p
}

// Acquire returns a handle for the calling goroutine's exclusive use until
// Release. It takes the most recently released handle if one is free
// (with no allocation), creates one if the pool is below its cap, and
// otherwise blocks until a Release.
func (p *Pool) Acquire() *PooledHandle {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.free) == 0 && p.created >= p.max {
		p.freed.Wait()
	}
	var h *PooledHandle
	if n := len(p.free); n > 0 {
		h = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		if g, ok := p.q.(Grower); ok {
			g.EnsureHandles(p.created + 1)
		}
		h = &PooledHandle{pool: p, inner: p.q.Handle()}
		p.created++
	}
	h.live.Store(true)
	p.live++
	p.peak = max(p.peak, p.live)
	return h
}

// Release returns h to the pool. The inner handle's buffers are flushed
// first, so a released handle holds no items — that is what entitles the
// dynamic relaxation accounting to judge rank errors against the live
// count rather than the created count (quality.EffectiveP; the k-LSM
// family is the documented exception). Using h after Release panics.
func (p *Pool) Release(h *PooledHandle) {
	if h == nil {
		return
	}
	if h.pool != p {
		panic("pq: Release of a handle from a different Pool")
	}
	if !h.live.Load() {
		panic("pq: Release of a handle that is not acquired")
	}
	// Flush while still owning the handle: once it is back on the free
	// list another goroutine may acquire it.
	Flush(h.inner)
	p.mu.Lock()
	h.live.Store(false)
	p.free = append(p.free, h)
	p.live--
	p.mu.Unlock()
	p.freed.Signal()
}

// Close implements Closer: teardown for the whole pooled stack. It flushes
// every free handle's buffers into the shared structure and closes the
// inner queue (a no-op unless that queue holds resources — a durable
// wrapper's WAL, for instance). A handle still acquired is the caller's
// bug: its buffered items may be unreachable, and Close reports how many
// there are in its error. Idempotent and nil-safe; the pool must not be
// used after.
func (p *Pool) Close() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	free, live := p.free, p.live
	p.free = nil
	p.mu.Unlock()
	for _, h := range free {
		Flush(h.inner)
	}
	err := Close(p.q)
	if live > 0 {
		err = errors.Join(fmt.Errorf("pq: pool closed with %d handles still acquired", live), err)
	}
	return err
}

// Live returns the number of currently acquired handles.
func (p *Pool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// PeakLive returns the high-water mark of Live since construction.
// Dynamic relaxation accounting judges rank errors against this, not
// against a frozen Options.Threads.
func (p *Pool) PeakLive() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// Created returns how many inner handles the pool has ever created. The
// k-LSM family's dynamic bound is judged against this (a released k-LSM
// handle keeps its local component; see quality.EffectiveP).
func (p *Pool) Created() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created
}

// Handle methods: delegate to the inner handle through the capability-
// checked helpers.

// Insert implements Handle.
func (h *PooledHandle) Insert(key, value uint64) {
	h.check()
	h.inner.Insert(key, value)
}

// DeleteMin implements Handle.
func (h *PooledHandle) DeleteMin() (key, value uint64, ok bool) {
	h.check()
	return h.inner.DeleteMin()
}

// InsertN implements BatchInserter (scalar loop if the inner handle has no
// native batch path).
func (h *PooledHandle) InsertN(kvs []KV) {
	h.check()
	InsertN(h.inner, kvs)
}

// DeleteMinN implements BatchDeleter (scalar loop if the inner handle has
// no native batch path).
func (h *PooledHandle) DeleteMinN(dst []KV, n int) int {
	h.check()
	return DeleteMinN(h.inner, dst, n)
}

// PeekMin implements Peeker (not-ok if the inner handle cannot peek).
func (h *PooledHandle) PeekMin() (key, value uint64, ok bool) {
	h.check()
	return PeekMin(h.inner)
}

// Flush implements Flusher. Release flushes implicitly; an explicit Flush
// mid-ownership publishes buffered items without giving the handle up.
func (h *PooledHandle) Flush() {
	h.check()
	Flush(h.inner)
}

// DeferCommit implements Committer (a no-op if the inner handle does not
// commit). Release flushes, which ends the deferral.
func (h *PooledHandle) DeferCommit() {
	h.check()
	DeferCommit(h.inner)
}

// Commit implements Committer (nil if the inner handle does not commit).
func (h *PooledHandle) Commit() error {
	h.check()
	return Commit(h.inner)
}

// check panics on use after Release — the pooled analogue of a
// use-after-free, which would otherwise corrupt another goroutine's
// thread-local state in the quietest possible way.
func (h *PooledHandle) check() {
	if !h.live.Load() {
		panic("pq: use of a pool handle after Release")
	}
}
