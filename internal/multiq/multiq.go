// Package multiq implements the MultiQueue of Rihani, Sanders and Dementiev
// (SPAA 2015 brief announcement): the simplest of the paper's relaxed
// designs and, per the paper's conclusion, the most consistent performer.
//
// The structure consists of c·P sequential priority queues, each protected
// by its own lock. Inserts push to a uniformly random queue; delete_min peeks
// at two uniformly random queues and pops from the one with the smaller
// minimum ("power of two choices" load balancing). No bound on the rank
// error has been proved ("no obvious guarantees on the order of deleted
// elements"), but empirically the error grows linearly with the thread
// count, which the quality benchmark reproduces.
//
// Each sub-queue caches its current minimum key in an atomic word so
// delete_min's comparison never takes locks it will not use.
//
// A sub-queue is two 4-ary heaps (seqheap.QuadHeap), not the paper's
// std::priority_queue, a binary heap. Popping a heap sifts an item down
// the whole heap, and at the benchmark's sizes (10^6 items over 8
// sub-queues) that walk leaves the cache: the 4-ary heap takes half the
// levels, each one cache line of 4 siblings (DESIGN.md §10).
//
// The two heaps are tiers. The cold heap takes every key at or above the
// floor, the key of its own latest pop (QuadHeap.LastPop); the hot heap
// takes every key below it. Every hot key is then below the floor and
// every cold key at or above it, so a pop drains hot before it touches
// cold and the sub-queue stays an exact priority queue: a cold pop happens
// only when hot is empty and returns cold's minimum, so the floor never
// falls. Under uniform keys and delete-min the keys a sub-queue keeps
// drift up to the old, large ones, and most new keys land below them and
// are popped within a few operations; the hot heap holds those in a few
// cache lines, where one heap would answer each such pop by sifting an
// old leaf down all of its levels. The floor is cold's last pop, not its
// minimum, so that a prefill, which pops nothing, lands in cold whole
// (floor 0). Keys that only rise (bench/'s split-asc) never go below a
// floor and bypass hot.
//
// A sub-queue is one 64-byte object: its lock, its cached minimum and its
// two heap headers fill exactly one cache line. Every push and pop writes
// it under the lock, so an operation dirties that line and the heaps'
// own, and no two sub-queues share one (a lock handoff on one sub-queue
// never invalidates its neighbour's heaps).
//
// NewEngineered builds the engineered variant of Williams and Sanders
// (stickiness + per-handle operation buffers); see engineered.go.
package multiq

import (
	"math"
	"sync"
	"sync/atomic"

	"cpq/internal/chaos"
	"cpq/internal/pq"
	"cpq/internal/rng"
	"cpq/internal/seqheap"
	"cpq/internal/telemetry"
)

// DefaultC is the queues-per-thread factor; the paper's benchmarks set c=4.
const DefaultC = 4

// emptyKey is the cached-minimum sentinel for an empty sub-queue.
const emptyKey = math.MaxUint64

// insertTryLimit bounds the random try-lock attempts of an insert before it
// falls back to a blocking Lock. Without the bound a handle can livelock
// when c·p is small and every sub-queue stays contended.
const insertTryLimit = 16

// subqueue is one locked pair of 4-ary heaps, hot and cold (see the
// package comment), with its cached minimum: exactly one 64-byte cache
// line. Allocated one by one, each sub-queue falls in the allocator's
// 64-byte size class and so starts on a line. Every method requires mu
// held, and the ones that change the heaps keep min current.
type subqueue struct {
	mu        sync.Mutex
	min       atomic.Uint64 // cached minimum key; emptyKey when empty
	hot, cold seqheap.QuadHeap
}

func newSubqueue() *subqueue {
	s := &subqueue{}
	s.min.Store(emptyKey)
	return s
}

// push adds its, each to hot if its key is below the floor (cold's last
// pop) and to cold otherwise. While hot is empty the minimum is cold's,
// at or above the floor, so a key at or above the minimum goes cold
// without reading the floor, which sits on the cold root's cache line: a
// prefill and rising keys (nearly) never touch that line.
func (s *subqueue) push(its []pq.Item) {
	m := s.min.Load()
	for _, it := range its {
		if s.hot.Len() == 0 && it.Key >= m || it.Key >= s.cold.LastPop() {
			s.cold.Push(it)
		} else {
			s.hot.Push(it)
		}
		m = min(m, it.Key)
	}
	s.min.Store(m)
}

// pop removes and returns the minimum item: hot's while hot holds one.
func (s *subqueue) pop() (pq.Item, bool) {
	it, ok := s.hot.Pop()
	if !ok {
		if it, ok = s.cold.Pop(); !ok {
			return it, false
		}
	}
	s.updateMin()
	return it, true
}

// popN removes up to max smallest items, appending them to dst in
// ascending key order (hot's, then cold's), and returns the extended
// slice.
func (s *subqueue) popN(dst []pq.Item, max int) []pq.Item {
	for ; max > 0; max-- {
		it, ok := s.hot.Pop()
		if !ok {
			if it, ok = s.cold.Pop(); !ok {
				break
			}
		}
		dst = append(dst, it)
	}
	s.updateMin()
	return dst
}

// peek returns the minimum item without removing it.
func (s *subqueue) peek() (pq.Item, bool) {
	if it, ok := s.hot.Min(); ok {
		return it, true
	}
	return s.cold.Min()
}

// len reports the number of items in both heaps.
func (s *subqueue) len() int { return s.hot.Len() + s.cold.Len() }

func (s *subqueue) updateMin() {
	if it, ok := s.peek(); ok {
		s.min.Store(it.Key)
	} else {
		s.min.Store(emptyKey)
	}
}

// Queue is a MultiQueue over a growable set of sub-queues: the set starts
// at c·p for the constructor's thread-count parameter and grows (never
// shrinks) when a handle pool outgrows it (EnsureHandles), so the c·P
// sizing rule tracks the live handle count instead of a frozen
// Options.Threads. The engineered variant (NewEngineered) additionally
// carries the stickiness and buffer parameters and a registry of its
// buffered handles, which the emptiness oracle (sweep), Len and PeekMin
// consult.
type Queue struct {
	// qs is the current sub-queue set, published atomically by growth.
	// Growth copies the old prefix into a longer slice, so an index into
	// an old snapshot stays valid in every later one (sticky targets
	// survive growth); only readers that must visit EVERY sub-queue
	// (sweepSubqueues, Len) need to re-check the pointer.
	qs    atomic.Pointer[[]*subqueue]
	c     int
	p     atomic.Int32 // handle count the current layout is sized for
	stick int          // sticky reuses per sub-queue selection (<=1: off)
	buf   int          // per-handle insertion/deletion buffer size (<=1: off)
	name  string       // benchmark identifier, e.g. "multiq" or "multiq-s4-b8"
	seed  atomic.Uint64

	growMu sync.Mutex // serializes EnsureHandles

	hmu     sync.Mutex
	handles []*EHandle // buffered handles; append-only under hmu
}

var _ pq.Queue = (*Queue)(nil)
var _ pq.Grower = (*Queue)(nil)

// New returns a MultiQueue with c·p sub-queues (c <= 0 selects DefaultC,
// p < 1 is treated as 1), each backed by two 4-ary heaps.
func New(c, p int) *Queue {
	if c <= 0 {
		c = DefaultC
	}
	if p < 1 {
		p = 1
	}
	q := &Queue{c: c, stick: 1, buf: 1, name: "multiq"}
	q.p.Store(int32(p))
	qs := make([]*subqueue, c*p)
	for i := range qs {
		qs[i] = newSubqueue()
	}
	q.qs.Store(&qs)
	return q
}

// queues returns the current sub-queue set. Callers use one snapshot per
// operation; see the Queue.qs comment for the growth contract.
func (q *Queue) queues() []*subqueue { return *q.qs.Load() }

// EnsureHandles implements pq.Grower: grow the sub-queue set to c·p when a
// handle pool's live set outgrows the layout the queue was built for.
// Existing sub-queues (and sticky indices into them) stay valid because
// growth publishes a longer slice sharing the old prefix. Idempotent;
// never shrinks.
func (q *Queue) EnsureHandles(p int) {
	if p <= int(q.p.Load()) {
		return
	}
	q.growMu.Lock()
	defer q.growMu.Unlock()
	if p <= int(q.p.Load()) {
		return
	}
	old := *q.qs.Load()
	qs := make([]*subqueue, q.c*p)
	copy(qs, old)
	for i := len(old); i < len(qs); i++ {
		qs[i] = newSubqueue()
	}
	q.qs.Store(&qs)
	q.p.Store(int32(p))
}

// Name implements pq.Queue.
func (q *Queue) Name() string { return q.name }

// C returns the queues-per-thread factor.
func (q *Queue) C() int { return q.c }

// P returns the handle count the current layout is sized for (the
// constructor's thread parameter, or the high-water EnsureHandles value).
func (q *Queue) P() int { return int(q.p.Load()) }

// NumQueues returns the current number of sub-queues (c·P).
func (q *Queue) NumQueues() int { return len(q.queues()) }

// Handle implements pq.Queue. Engineered queues (stickiness or buffering
// enabled) hand out buffered handles and register them so sweep/Len/PeekMin
// can observe (and steal from) their buffers.
func (q *Queue) Handle() pq.Handle {
	r := rng.New(q.seed.Add(0x9e3779b97f4a7c15))
	if q.stick > 1 || q.buf > 1 {
		h := &EHandle{q: q, rng: r, tel: telemetry.NewShard()}
		q.hmu.Lock()
		q.handles = append(q.handles, h)
		q.hmu.Unlock()
		return h
	}
	return &Handle{q: q, rng: r, tel: telemetry.NewShard()}
}

// Handle is a per-goroutine handle carrying the queue-selection RNG.
type Handle struct {
	q   *Queue
	rng *rng.Xoroshiro
	tel *telemetry.Shard
}

var _ pq.Handle = (*Handle)(nil)
var _ pq.Peeker = (*Handle)(nil)

// Insert implements pq.Handle: push to a uniformly random sub-queue
// (lockAny).
func (h *Handle) Insert(key, value uint64) {
	_, s := lockAny(h.q.queues(), h.rng)
	s.push([]pq.Item{{Key: key, Value: value}})
	s.mu.Unlock()
}

// lockAny locks a uniformly random sub-queue of qs and returns its index
// and the sub-queue; every insert path (a scalar insert, a batch, a buffer
// flush) acquires its target this way. It takes sub-queues by try-lock,
// so a busy one redirects the insert elsewhere, but the attempts are
// bounded: past insertTryLimit it blocks on one random sub-queue instead
// of spinning (a single contended handle must not livelock when c·p is
// small).
func lockAny(qs []*subqueue, r *rng.Xoroshiro) (int, *subqueue) {
	n := uint64(len(qs))
	for attempt := 0; attempt < insertTryLimit; attempt++ {
		i := int(r.Uintn(n))
		// Failpoint: a forced try-lock failure redirects the insert to
		// another sub-queue, like a genuinely contended lock.
		if !chaos.ShouldFail(chaos.MQLock) && qs[i].mu.TryLock() {
			return i, qs[i]
		}
	}
	i := int(r.Uintn(n))
	chaos.Perturb(chaos.MQLock)
	qs[i].mu.Lock()
	return i, qs[i]
}

// sampleTwo draws two distinct uniform sub-queue indices over one snapshot
// of the sub-queue set (branch-free distinct sampling: the second index is
// an independent uniform draw over the n-1 queues that are not the first)
// and returns the index with the smaller cached minimum along with that
// minimum (emptyKey when both sampled queues look empty).
func sampleTwo(qs []*subqueue, r *rng.Xoroshiro) (int, uint64) {
	n := uint64(len(qs))
	i := r.Uintn(n)
	j := i
	if n > 1 {
		j = (i + 1 + r.Uintn(n-1)) % n
	}
	mi, mj := qs[i].min.Load(), qs[j].min.Load()
	if mj < mi {
		return int(j), mj
	}
	return int(i), mi
}

// DeleteMin implements pq.Handle: sample two distinct random sub-queues,
// lock the one whose cached minimum is smaller and pop it. If the chosen
// queue turned out empty (raced), resample; a full sweep over all
// sub-queues decides emptiness.
func (h *Handle) DeleteMin() (key, value uint64, ok bool) {
	qs := h.q.queues()
	for attempt := 0; attempt < 3*len(qs); attempt++ {
		pick, min := sampleTwo(qs, h.rng)
		if min == emptyKey {
			continue // both sampled queues look empty; resample
		}
		s := qs[pick]
		if chaos.ShouldFail(chaos.MQLock) || !s.mu.TryLock() {
			continue
		}
		it, popped := s.pop()
		s.mu.Unlock()
		if popped {
			return it.Key, it.Value, true
		}
	}
	return h.sweep()
}

// sweep scans every sub-queue once under its lock; it is the emptiness
// oracle and the last resort when sampling keeps missing.
func (h *Handle) sweep() (key, value uint64, ok bool) {
	h.tel.Inc(telemetry.MQSweep)
	return h.q.sweepSubqueues()
}

// sweepSubqueues pops from the first non-empty sub-queue, scanning all of
// them under their locks. It is pass one of the emptiness oracle; the
// engineered variant follows it with a pass over the per-handle buffers.
// An emptiness verdict is only valid for an unchanged sub-queue set: a
// concurrent EnsureHandles may have published sub-queues this scan never
// visited, so the scan retries until the set pointer holds still.
func (q *Queue) sweepSubqueues() (key, value uint64, ok bool) {
	for {
		ptr := q.qs.Load()
		for _, s := range *ptr {
			s.mu.Lock()
			it, popped := s.pop()
			s.mu.Unlock()
			if popped {
				return it.Key, it.Value, true
			}
		}
		if q.qs.Load() == ptr {
			return 0, 0, false
		}
	}
}

// PeekMin implements pq.Peeker: the minimum of the sub-queue with the
// smallest cached minimum (approximate under concurrency).
func (h *Handle) PeekMin() (key, value uint64, ok bool) {
	it, ok := h.q.peekSubqueues()
	return it.Key, it.Value, ok
}

// peekSubqueues returns the minimum item of the sub-queue whose cached
// minimum is smallest, read under that sub-queue's lock; it reports false
// when every cached minimum says empty or the chosen sub-queue was
// drained meanwhile.
func (q *Queue) peekSubqueues() (pq.Item, bool) {
	qs := q.queues()
	best, pick := uint64(emptyKey), -1
	for i, s := range qs {
		if m := s.min.Load(); m < best {
			best, pick = m, i
		}
	}
	if pick < 0 {
		return pq.Item{}, false
	}
	s := qs[pick]
	s.mu.Lock()
	it, ok := s.peek()
	s.mu.Unlock()
	return it, ok
}

// Len sums the sizes of all sub-queues under their locks, plus — for the
// engineered variant — the contents of every handle's insertion and
// deletion buffer (buffered items are still in the queue). Like
// sweepSubqueues, the sub-queue pass retries if the set grew under it.
// Tests only.
func (q *Queue) Len() int {
	total := 0
	for {
		ptr := q.qs.Load()
		total = 0
		for _, s := range *ptr {
			s.mu.Lock()
			total += s.len()
			s.mu.Unlock()
		}
		if q.qs.Load() == ptr {
			break
		}
	}
	for _, h := range q.snapshotHandles() {
		h.mu.Lock()
		total += len(h.ins) + len(h.del)
		h.mu.Unlock()
	}
	return total
}

// snapshotHandles returns the current buffered-handle registry. The slice
// is append-only, so the snapshot stays valid after hmu is released.
func (q *Queue) snapshotHandles() []*EHandle {
	q.hmu.Lock()
	hs := q.handles
	q.hmu.Unlock()
	return hs
}
