// Handle pool: the elastic handle lifecycle layered over every Queue.
//
// The paper's model is a fixed thread count chosen at construction with one
// long-lived Handle per worker. A goroutine-per-request server breaks both
// assumptions: goroutines outnumber GOMAXPROCS by orders of magnitude, live
// for one small op burst, and may exit without cleanup. Pool bridges the
// two worlds: a bounded set of real per-goroutine Handles is recycled
// through Acquire/Release, so the structures underneath still see the
// paper's "P threads with thread-local state" shape while callers see a
// dynamic lifecycle.
//
// Layout (sync.Pool-style, but without runtime hooks):
//
//   - Per-shard slots: an array of cache-line-padded single-handle slots,
//     indexed by a goroutine-affine stack-address hash. The hit path is one
//     atomic swap on a line no other shard touches — zero allocations, no
//     shared CAS retry loop.
//   - Overflow stack: a Treiber stack over pool-owned index nodes, with
//     the head packed as (index+1)<<32 | version so a pop's CAS fails (and
//     retries) instead of suffering ABA when a node is popped and repushed
//     concurrently. The free lists hold the only strong references to free
//     wrappers — the pool keeps no permanent wrapper table — which is what
//     makes "abandoned" detectable as "unreachable".
//   - Capped growth: when every free list is empty and the created count is
//     below the cap, a mutex-guarded slow path creates a fresh inner
//     Handle, first growing layout-elastic queues (Grower) so sub-queue
//     counts and walk geometry track the pool rather than a frozen
//     Options.Threads.
//   - Stealing: a wrapper that becomes unreachable while acquired was
//     abandoned by its goroutine. Its finalizer flushes the inner handle's
//     buffers back to the shared structure — exactly the chaos checker's
//     Flush-recovery contract — then resurrects the wrapper into the free
//     list with the finalizer re-armed. No items are lost, and the live
//     count (which feeds the dynamic kP relaxation bounds) drops back.
package pq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
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
	// cap, Acquire waits for a Release (or a steal) instead of growing.
	// <= 0 selects 4·GOMAXPROCS.
	MaxHandles int
}

const (
	// defaultMaxFactor sizes the default handle cap: enough concurrency
	// headroom over GOMAXPROCS that blocking structures keep their lock
	// handoff chains busy, small enough that relaxation bounds (kP) stay
	// tight.
	defaultMaxFactor = 4
	// starveGCEvery: at the cap, every this-many failed wait rounds the
	// acquirer provokes the collector, because abandoned handles can only
	// be stolen after their wrappers are found unreachable.
	starveGCEvery = 64
)

// Wrapper states. A PooledHandle is handleLive between Acquire and Release
// (or reclaim) and handleFree while it sits in a free list.
const (
	handleFree uint32 = iota
	handleLive
)

// Pool recycles per-goroutine Handles of one Queue. All methods are safe
// for concurrent use. See the file comment for the layout.
type Pool struct {
	q      Queue
	max    int
	shards []poolShard
	mask   uint32

	// head is the overflow stack top, packed (index+1)<<32 | version; the
	// version half increments on every successful push or pop, defeating
	// ABA on the node links.
	head atomic.Uint64

	live    atomic.Int64  // currently acquired handles
	peak    atomic.Int64  // high-water mark of live (feeds dynamic kP)
	created atomic.Int64  // handles ever created (≤ max)
	steals  atomic.Uint64 // abandoned handles reclaimed
	closed  atomic.Bool   // Close ran; free lists drained, inner queue closed

	mu sync.Mutex // growth: inner-handle creation and index assignment

	// free backs the overflow stack, one entry per created handle, indexed
	// by PooledHandle.idx. ref is the strong reference that keeps a
	// stacked wrapper reachable — the pool deliberately holds NO permanent
	// table of wrappers, so an acquired wrapper is reachable only through
	// its owner goroutine and abandonment is exactly unreachability, which
	// is what arms the steal finalizer. ref is stored before the index is
	// pushed and swapped out by the winning popper, so stack membership
	// and the strong reference travel together.
	free []freeSlot
}

// poolShard is one padded free slot. Only the slot pointer is hot; the pad
// keeps neighbouring shards off its cache line.
type poolShard struct {
	slot atomic.Pointer[PooledHandle]
	_    [7]uint64
}

// freeSlot is one overflow-stack node, owned by the pool (not the wrapper)
// so the stack's links stay valid regardless of wrapper lifetime.
type freeSlot struct {
	ref  atomic.Pointer[PooledHandle]
	next atomic.Int32 // packed index+1 of the node below (0 = end)
}

// PooledHandle wraps one inner per-goroutine Handle for its trips through
// the pool. It implements Handle, Flusher, Peeker, BatchInserter,
// BatchDeleter and Committer, delegating through the capability-checked
// helpers, so callers use it exactly like a plain Handle between Acquire
// and Release. Like the Handle it wraps, it must not be used by two
// goroutines at once.
type PooledHandle struct {
	pool  *Pool
	inner Handle
	idx   int32         // this wrapper's overflow-stack node in pool.free
	state atomic.Uint32 // handleFree / handleLive
}

// Chaos hooks. internal/chaos imports this package (the checker drives
// queues through Handles), so the pool cannot call into chaos without a
// cycle; chaos.Enable injects its acquire-steal failpoint here instead.
// Both are read with a plain load under the same discipline as
// telemetry.Enabled: set before workers start, cleared after they join.
var (
	poolFailAcquire  func() bool // forces an Acquire fast-path miss
	poolPerturbSteal func()      // stretches the reclaim window mid-steal
)

// SetPoolFailpoints installs (nil, nil clears) the pool's chaos hooks:
// fail forces Acquire to skip the free lists once, exercising the growth
// and starvation paths under contention; perturb runs inside abandoned-
// handle reclamation between ownership transfer and the buffer flush,
// widening the window a conservation bug would need.
func SetPoolFailpoints(fail func() bool, perturb func()) {
	poolFailAcquire, poolPerturbSteal = fail, perturb
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
	nsh := 8
	for nsh < 2*runtime.GOMAXPROCS(0) {
		nsh <<= 1
	}
	p := &Pool{
		q:      q,
		max:    maxH,
		shards: make([]poolShard, nsh),
		mask:   uint32(nsh - 1),
		free:   make([]freeSlot, maxH),
	}
	return p
}

// Acquire returns a handle for the calling goroutine's exclusive use until
// Release. The hit path — a pooled handle is free — is one padded-slot
// swap (or a lock-free overflow pop) with zero allocations. When the free
// lists are empty the pool grows up to its cap; at the cap, Acquire spins
// politely waiting for a Release, periodically provoking the collector so
// abandoned handles can be stolen back.
func (p *Pool) Acquire() *PooledHandle {
	for starve := 0; ; starve++ {
		if h := p.tryReuse(); h != nil {
			h.activate()
			return h
		}
		if p.created.Load() < int64(p.max) {
			if h := p.newHandle(); h != nil {
				h.activate()
				return h
			}
			continue // lost the growth race; a free handle may have appeared
		}
		if starve%starveGCEvery == starveGCEvery-1 {
			runtime.GC()
		}
		runtime.Gosched()
	}
}

// tryReuse probes the free lists: own shard slot, overflow stack, then a
// steal scan over the other shards' slots.
func (p *Pool) tryReuse() *PooledHandle {
	if poolFailAcquire != nil && poolFailAcquire() {
		return nil // chaos acquire-steal: forced fast-path miss
	}
	sh := &p.shards[shardIndex()&p.mask]
	if h := sh.slot.Swap(nil); h != nil {
		return h
	}
	if h := p.popOverflow(); h != nil {
		return h
	}
	for i := range p.shards {
		if h := p.shards[i].slot.Swap(nil); h != nil {
			return h
		}
	}
	return nil
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
	// Flush while still owning the handle: after the state flips to free a
	// concurrent Acquire may hand it to another goroutine.
	Flush(h.inner)
	if !h.state.CompareAndSwap(handleLive, handleFree) {
		panic("pq: Release of a handle that is not acquired")
	}
	p.live.Add(-1)
	sh := &p.shards[shardIndex()&p.mask]
	if old := sh.slot.Swap(h); old != nil {
		p.pushOverflow(old)
	}
}

// activate flips a free wrapper to live and maintains the live/peak
// counters every Acquire exit path shares.
func (h *PooledHandle) activate() {
	if !h.state.CompareAndSwap(handleFree, handleLive) {
		panic("pq: pool free list handed out a live handle")
	}
	p := h.pool
	l := p.live.Add(1)
	for {
		pk := p.peak.Load()
		if l <= pk || p.peak.CompareAndSwap(pk, l) {
			break
		}
	}
}

// newHandle is the growth slow path: create inner handle number n+1 under
// the growth lock, growing layout-elastic queues first so the structure is
// sized for the handle before it exists. Returns nil at the cap.
func (p *Pool) newHandle() *PooledHandle {
	p.mu.Lock()
	n := int(p.created.Load())
	if n >= p.max {
		p.mu.Unlock()
		return nil
	}
	if g, ok := p.q.(Grower); ok {
		g.EnsureHandles(n + 1)
	}
	h := &PooledHandle{pool: p, inner: p.q.Handle(), idx: int32(n)}
	p.created.Store(int64(n + 1))
	p.mu.Unlock()
	runtime.SetFinalizer(h, (*PooledHandle).reclaim)
	return h
}

// reclaim runs as h's finalizer. Free wrappers are always referenced by a
// free list, so an unreachable wrapper in the live state means its owner
// goroutine exited without Release — the handle was abandoned. Reclaim
// takes ownership back, flushes the inner handle's buffered items to the
// shared structure (the chaos checker's Flush-recovery contract: nothing
// an abandoned handle holds may be lost), drops the live count, and
// resurrects the wrapper into the free list with the finalizer re-armed
// for its next abandonment.
func (h *PooledHandle) reclaim() {
	if !h.state.CompareAndSwap(handleLive, handleFree) {
		// Unreachable while free: the pool itself is being collected
		// together with its free lists. Nothing to recover.
		return
	}
	p := h.pool
	if poolPerturbSteal != nil {
		poolPerturbSteal() // chaos: widen the steal window
	}
	Flush(h.inner)
	p.live.Add(-1)
	p.steals.Add(1)
	// Re-arm before resurrection: once back in a free list the wrapper can
	// be acquired — and abandoned — again.
	runtime.SetFinalizer(h, (*PooledHandle).reclaim)
	p.pushOverflow(h)
}

// pushOverflow links h's node as the new stack top. The strong ref is
// stored before the index becomes visible, so any popper that wins the
// node also finds the wrapper. The version half of head advances on
// success, so a concurrent pop that already read the old head must re-read
// rather than act on a stale link.
func (p *Pool) pushOverflow(h *PooledHandle) {
	s := &p.free[h.idx]
	s.ref.Store(h)
	for {
		old := p.head.Load()
		s.next.Store(int32(old >> 32))
		if p.head.CompareAndSwap(old, uint64(uint32(h.idx+1))<<32|uint64(uint32(old)+1)) {
			return
		}
	}
}

// popOverflow unlinks and returns the stack top, or nil when empty. The
// link read may race with the node being popped and repushed elsewhere;
// the versioned CAS then fails and the loop retries with fresh state, so
// a stale link is never installed (classic ABA defense). A node is in the
// stack at most once — each free transition pushes exactly once — so the
// winner's ref swap always yields the wrapper.
func (p *Pool) popOverflow() *PooledHandle {
	for {
		old := p.head.Load()
		idx := uint32(old >> 32)
		if idx == 0 {
			return nil
		}
		s := &p.free[idx-1]
		next := uint32(s.next.Load())
		if p.head.CompareAndSwap(old, uint64(next)<<32|uint64(uint32(old)+1)) {
			return s.ref.Swap(nil)
		}
	}
}

// shardIndex derives a goroutine-affine shard hint from the address of a
// stack local. Goroutine stacks are disjoint, so concurrently running
// goroutines spread across shards, and repeated calls from one goroutine
// usually agree (stacks move only on growth) — the closest portable
// analogue of sync.Pool's per-P private slot. The pointer is consumed as
// an integer immediately, so the local does not escape and the fast path
// stays allocation-free.
func shardIndex() uint32 {
	var b byte
	x := uint64(uintptr(unsafe.Pointer(&b)) >> 10)
	x *= 0x9e3779b97f4a7c15
	return uint32(x >> 33)
}

// Close implements Closer: teardown for the whole pooled stack. It drains
// the free lists, flushes every freed handle's buffers into the shared
// structure, disarms their reclaim finalizers, and closes the inner queue
// (a no-op unless that queue holds resources — a durable wrapper's WAL,
// for instance). Handles still acquired are the caller's bug: their items
// are only recoverable through the finalizer steal, which Close does not
// wait for. Idempotent and nil-safe; the pool must not be used after.
func (p *Pool) Close() error {
	if p == nil || !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	flushed := make(map[*PooledHandle]bool)
	for i := range p.shards {
		if h := p.shards[i].slot.Swap(nil); h != nil && !flushed[h] {
			flushed[h] = true
			runtime.SetFinalizer(h, nil)
			Flush(h.inner)
		}
	}
	for {
		h := p.popOverflow()
		if h == nil {
			break
		}
		if !flushed[h] {
			flushed[h] = true
			runtime.SetFinalizer(h, nil)
			Flush(h.inner)
		}
	}
	return Close(p.q)
}

// Live returns the number of currently acquired handles.
func (p *Pool) Live() int { return int(p.live.Load()) }

// PeakLive returns the high-water mark of Live since construction.
// Dynamic relaxation accounting judges rank errors against this, not
// against a frozen Options.Threads.
func (p *Pool) PeakLive() int { return int(p.peak.Load()) }

// Created returns how many inner handles the pool has ever created. The
// k-LSM family's dynamic bound is judged against this (a released k-LSM
// handle keeps its local component; see quality.EffectiveP).
func (p *Pool) Created() int { return int(p.created.Load()) }

// Steals returns how many abandoned handles the pool has reclaimed.
func (p *Pool) Steals() uint64 { return p.steals.Load() }

// Handle methods: delegate to the inner handle through the capability-
// checked helpers. Each keeps the wrapper alive across the inner call so
// the reclaim finalizer cannot fire while an operation is in flight (the
// compiler may otherwise drop the last reference to h mid-method).

// Insert implements Handle.
func (h *PooledHandle) Insert(key, value uint64) {
	h.check()
	h.inner.Insert(key, value)
	runtime.KeepAlive(h)
}

// DeleteMin implements Handle.
func (h *PooledHandle) DeleteMin() (key, value uint64, ok bool) {
	h.check()
	key, value, ok = h.inner.DeleteMin()
	runtime.KeepAlive(h)
	return
}

// InsertN implements BatchInserter (scalar loop if the inner handle has no
// native batch path).
func (h *PooledHandle) InsertN(kvs []KV) {
	h.check()
	InsertN(h.inner, kvs)
	runtime.KeepAlive(h)
}

// DeleteMinN implements BatchDeleter (scalar loop if the inner handle has
// no native batch path).
func (h *PooledHandle) DeleteMinN(dst []KV, n int) int {
	h.check()
	got := DeleteMinN(h.inner, dst, n)
	runtime.KeepAlive(h)
	return got
}

// PeekMin implements Peeker (not-ok if the inner handle cannot peek).
func (h *PooledHandle) PeekMin() (key, value uint64, ok bool) {
	h.check()
	key, value, ok = PeekMin(h.inner)
	runtime.KeepAlive(h)
	return
}

// Flush implements Flusher. Release flushes implicitly; an explicit Flush
// mid-ownership publishes buffered items without giving the handle up.
func (h *PooledHandle) Flush() {
	h.check()
	Flush(h.inner)
	runtime.KeepAlive(h)
}

// DeferCommit implements Committer (a no-op if the inner handle does not
// commit). Release flushes, which ends the deferral.
func (h *PooledHandle) DeferCommit() {
	h.check()
	DeferCommit(h.inner)
	runtime.KeepAlive(h)
}

// Commit implements Committer (nil if the inner handle does not commit).
func (h *PooledHandle) Commit() error {
	h.check()
	err := Commit(h.inner)
	runtime.KeepAlive(h)
	return err
}

// check panics on use after Release — the pooled analogue of a
// use-after-free, which would otherwise corrupt another goroutine's
// thread-local state in the quietest possible way.
func (h *PooledHandle) check() {
	if h.state.Load() != handleLive {
		panic("pq: use of a pool handle after Release")
	}
}
