// Engineered MultiQueue: the stickiness and operation-buffering extensions
// of Williams and Sanders, "Engineering MultiQueues: Fast Relaxed Concurrent
// Priority Queues" (arXiv:2107.01350, revised as 2504.11652), layered on the
// classic c·p sub-queue structure.
//
//   - Stickiness s: a handle reuses its last sub-queue selection for up to s
//     consecutive lock acquisitions (insert flushes, deletion refills)
//     before re-sampling, and abandons it early on try-lock failure or an
//     empty pop. Sticky handles touch fewer cache lines and contend less.
//   - Insertion buffer b: inserts accumulate in a small sorted per-handle
//     buffer; a full buffer is flushed into one sub-queue under a single
//     lock acquisition.
//   - Deletion buffer b: a refill pops a batch of up to b items from the
//     chosen sub-queue under a single lock acquisition; subsequent deletes
//     are served from the buffer without touching shared state.
//
// Both extensions trade rank error for throughput: buffered items are
// invisible to other handles' sampling, and a deletion batch can overtake
// smaller keys inserted after the refill. The quality benchmark
// (internal/quality) measures exactly this trade-off.
//
// Correctness of the relaxed contract is preserved by three rules. First,
// every buffered handle is registered with its queue, and the emptiness
// oracle (sweep) scans the registered buffers after the sub-queues, stealing
// buffered items if needed — DeleteMin reports empty only when neither a
// sub-queue nor any buffer holds an item. Second, Len and PeekMin consult
// the same buffers, so the queue's observable size never drops below its
// true size. Third, a handle's own insertion buffer competes with the
// sampled sub-queue minimum during deletes, so a handle can never starve
// its own small keys.
package multiq

import (
	"fmt"
	"sync"

	"cpq/internal/chaos"
	"cpq/internal/pq"
	"cpq/internal/rng"
	"cpq/internal/telemetry"
)

// DefaultStickiness and DefaultBuffer are the engineered variant's default
// tuning (the registry identifier "multiq-s4-b8").
const (
	DefaultStickiness = 4
	DefaultBuffer     = 8
)

// NewEngineered returns an engineered MultiQueue with c·p sub-queues,
// stickiness s and per-handle buffer size b. c <= 0 selects DefaultC;
// s and b are clamped to 1 (1 = extension disabled). With s <= 1 and
// b <= 1 the queue degenerates to the seed MultiQueue except for its name.
func NewEngineered(c, p, s, b int) *Queue {
	q := New(c, p)
	if s < 1 {
		s = 1
	}
	if b < 1 {
		b = 1
	}
	q.stick, q.buf = s, b
	if q.c == DefaultC {
		q.name = fmt.Sprintf("multiq-s%d-b%d", s, b)
	} else {
		q.name = fmt.Sprintf("multiq-c%d-s%d-b%d", q.c, s, b)
	}
	return q
}

// Stickiness returns the sticky-reuse parameter s (1 = off).
func (q *Queue) Stickiness() int { return q.stick }

// Buffer returns the per-handle buffer size b (1 = off).
func (q *Queue) Buffer() int { return q.buf }

// EHandle is the engineered variant's per-goroutine handle. The buffers are
// owned by the handle's goroutine but guarded by mu so that sweep, Len and
// PeekMin running on other handles can observe and steal them; the owner's
// fast path takes mu uncontended.
type EHandle struct {
	q   *Queue
	rng *rng.Xoroshiro
	tel *telemetry.Shard

	mu  sync.Mutex
	ins []pq.Item // pending insertions, sorted ascending by key
	del []pq.Item // refilled deletions, sorted descending (serve from the end)

	insQ, insLeft int // sticky insert target and remaining reuses
	delQ, delLeft int // sticky delete target and remaining reuses
}

var _ pq.Handle = (*EHandle)(nil)
var _ pq.Peeker = (*EHandle)(nil)
var _ pq.Flusher = (*EHandle)(nil)

// Insert implements pq.Handle: the item goes into the sorted insertion
// buffer; a full buffer is flushed to one sub-queue under one lock.
func (h *EHandle) Insert(key, value uint64) {
	h.mu.Lock()
	h.pushInsLocked(pq.Item{Key: key, Value: value})
	if len(h.ins) >= h.q.buf {
		h.flushInsLocked()
	}
	h.mu.Unlock()
}

// pushInsLocked inserts into the sorted buffer (insertion sort; the buffer
// is at most b items, so the memmove is a handful of cache lines).
func (h *EHandle) pushInsLocked(it pq.Item) {
	a := append(h.ins, it)
	i := len(a) - 1
	for i > 0 && a[i-1].Key > it.Key {
		a[i] = a[i-1]
		i--
	}
	a[i] = it
	h.ins = a
}

// takeInsLocked removes and returns the smallest buffered insertion.
func (h *EHandle) takeInsLocked() pq.Item {
	it := h.ins[0]
	h.ins = h.ins[:copy(h.ins, h.ins[1:])]
	return it
}

// flushInsLocked publishes the whole insertion buffer into one sub-queue
// under a single lock acquisition. Requires h.mu held.
func (h *EHandle) flushInsLocked() {
	if len(h.ins) == 0 {
		return
	}
	h.tel.Inc(telemetry.MQInsFlush)
	// Failpoint: stall the flush while h.mu is held, so sweeps, Len and
	// steals from other handles pile up against the buffered items.
	chaos.Perturb(chaos.MQFlush)
	s := h.lockForInsert()
	s.push(h.ins)
	s.mu.Unlock()
	h.ins = h.ins[:0]
}

// lockForInsert acquires one sub-queue lock for a flush: the sticky target
// if it still has reuses and its try-lock succeeds, otherwise a fresh
// lockAny pick, which becomes the new sticky target.
func (h *EHandle) lockForInsert() *subqueue {
	q := h.q
	qs := q.queues()
	if h.insLeft > 0 {
		s := qs[h.insQ] // sticky indices survive growth (prefix is shared)
		// Failpoint: a forced try-lock failure abandons the sticky target,
		// exercising the stick-reset and resample path.
		if !chaos.ShouldFail(chaos.MQLock) && s.mu.TryLock() {
			h.insLeft--
			return s
		}
		h.insLeft = 0 // contended: abandon the sticky target
		h.tel.Inc(telemetry.MQStickReset)
	}
	i, s := lockAny(qs, h.rng)
	h.insQ, h.insLeft = i, q.stick-1
	return s
}

// DeleteMin implements pq.Handle: serve from the deletion buffer when
// possible (comparing against the insertion buffer's minimum so a handle
// never overtakes its own smaller keys), refill otherwise, and fall back
// to the buffer-aware sweep when sampling finds everything empty.
func (h *EHandle) DeleteMin() (key, value uint64, ok bool) {
	h.mu.Lock()
	if n := len(h.del); n > 0 {
		if len(h.ins) > 0 && h.ins[0].Key < h.del[n-1].Key {
			it := h.takeInsLocked()
			h.mu.Unlock()
			return it.Key, it.Value, true
		}
		it := h.del[n-1]
		h.del = h.del[:n-1]
		h.mu.Unlock()
		return it.Key, it.Value, true
	}
	it, found := h.refillLocked()
	h.mu.Unlock()
	if found {
		return it.Key, it.Value, true
	}
	return h.sweepBuffered()
}

// refillLocked repopulates the deletion buffer from the sub-queue chosen by
// sticky/min-of-two sampling, popping up to b items under one lock, and
// returns the smallest item obtained. The handle's own insertion buffer
// competes as a deletion source. Requires h.mu held.
func (h *EHandle) refillLocked() (pq.Item, bool) {
	return h.refillNLocked(h.q.buf)
}

// refillNLocked is refillLocked with an explicit batch width: DeleteMinN
// refills with the remaining batch size when that exceeds b, so one lock
// acquisition feeds the whole batch. Stickiness is respected either way —
// the width only changes how much one acquisition pops.
func (h *EHandle) refillNLocked(want int) (pq.Item, bool) {
	q := h.q
	qs := q.queues()
	for attempt := 0; attempt < 3*len(qs); attempt++ {
		pick, min := -1, uint64(emptyKey)
		if h.delLeft > 0 {
			pick, min = h.delQ, qs[h.delQ].min.Load()
			h.delLeft--
			if min == emptyKey {
				pick, h.delLeft = -1, 0 // sticky target drained; resample
				h.tel.Inc(telemetry.MQStickReset)
			}
		}
		if pick < 0 {
			pick, min = sampleTwo(qs, h.rng)
			h.delQ, h.delLeft = pick, q.stick-1
		}
		if len(h.ins) > 0 && h.ins[0].Key <= min {
			return h.takeInsLocked(), true
		}
		if min == emptyKey {
			continue // both sampled queues look empty; resample
		}
		// Failpoint: stall between the cached-min sample and the batch pop
		// (inviting a raced drain), and force the occasional try-lock loss.
		chaos.Perturb(chaos.MQRefill)
		s := qs[pick]
		if chaos.ShouldFail(chaos.MQLock) || !s.mu.TryLock() {
			h.delLeft = 0
			h.tel.Inc(telemetry.MQStickReset)
			continue
		}
		h.tel.Inc(telemetry.MQDelRefill)
		h.del = popBatchDescending(s, h.del[:0], want)
		s.mu.Unlock()
		if m := len(h.del); m > 0 {
			it := h.del[m-1]
			h.del = h.del[:m-1]
			return it, true
		}
		h.delLeft = 0 // raced with a drain; resample
	}
	if len(h.ins) > 0 {
		return h.takeInsLocked(), true
	}
	return pq.Item{}, false
}

// popBatchDescending pops up to max items from s in ascending order and
// stores them into dst reversed (descending), so the deletion buffer is
// served from the slice end in O(1). Requires s.mu held.
func popBatchDescending(s *subqueue, dst []pq.Item, max int) []pq.Item {
	dst = s.popN(dst, max)
	for i, j := 0, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// sweepBuffered is the engineered variant's emptiness oracle: scan every
// sub-queue, then every registered handle's buffers. A deletion buffer
// holds items already removed from the shared structure and an insertion
// buffer holds items not yet published; either way the queue is non-empty,
// so the sweep steals the buffer's smallest item. Must be called without
// h.mu held (the registry includes h itself).
func (h *EHandle) sweepBuffered() (key, value uint64, ok bool) {
	q := h.q
	h.tel.Inc(telemetry.MQSweep)
	if k, v, found := q.sweepSubqueues(); found {
		return k, v, true
	}
	for _, other := range q.snapshotHandles() {
		other.mu.Lock()
		if n := len(other.del); n > 0 {
			it := other.del[n-1]
			other.del = other.del[:n-1]
			other.mu.Unlock()
			return it.Key, it.Value, true
		}
		if len(other.ins) > 0 {
			it := other.takeInsLocked()
			other.mu.Unlock()
			return it.Key, it.Value, true
		}
		other.mu.Unlock()
	}
	return 0, 0, false
}

// PeekMin implements pq.Peeker: the smallest of the sub-queues' minimum
// (peekSubqueues) and every registered handle's buffered minima
// (approximate under concurrency, like the seed's PeekMin).
func (h *EHandle) PeekMin() (key, value uint64, ok bool) {
	best, found := h.q.peekSubqueues()
	for _, other := range h.q.snapshotHandles() {
		other.mu.Lock()
		if n := len(other.del); n > 0 && (!found || other.del[n-1].Key < best.Key) {
			best, found = other.del[n-1], true
		}
		if len(other.ins) > 0 && (!found || other.ins[0].Key < best.Key) {
			best, found = other.ins[0], true
		}
		other.mu.Unlock()
	}
	if !found {
		return 0, 0, false
	}
	return best.Key, best.Value, true
}

// Flush implements pq.Flusher: publish the insertion buffer and return the
// unserved deletion buffer to the sub-queues, leaving both buffers empty.
// Deletion-buffer items were popped from the shared structure but never
// handed to a caller, so pushing them back neither loses nor duplicates
// items. The benchmark harnesses call Flush when a worker's measured phase
// ends, so replay and post-run accounting see every item.
func (h *EHandle) Flush() {
	h.mu.Lock()
	h.flushInsLocked()
	if len(h.del) > 0 {
		s := h.lockForInsert()
		s.push(h.del)
		s.mu.Unlock()
		h.del = h.del[:0]
	}
	h.mu.Unlock()
}
