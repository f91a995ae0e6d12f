package multiq

import (
	"cpq/internal/chaos"
	"cpq/internal/pq"
	"cpq/internal/telemetry"
)

// Batch-first paths of the MultiQueue family (DESIGN.md §4c).
//
// A MultiQueue operation's cost is dominated by its sub-queue lock
// acquisition (sampling, try-lock, cached-min maintenance). The batch
// paths pay it once per batch: InsertN pushes the whole batch into one
// sampled sub-queue under one lock — exactly the placement the engineered
// variant's buffer flush already performs — and DeleteMinN pops batches
// from the min-of-two choice. Relaxation-wise a batch behaves like the
// engineered variant with buffer size = batch width, a trade the quality
// harness measures rather than assumes away.

var _ pq.BatchInserter = (*Handle)(nil)
var _ pq.BatchDeleter = (*Handle)(nil)

// InsertN implements pq.BatchInserter: one lock acquisition (lockAny, as
// in the scalar insert) publishes the whole batch to a uniformly random
// sub-queue.
func (h *Handle) InsertN(kvs []pq.KV) {
	if len(kvs) == 0 {
		return
	}
	_, s := lockAny(h.q.queues(), h.rng)
	s.push(kvs)
	s.mu.Unlock()
}

// DeleteMinN implements pq.BatchDeleter: each min-of-two sample that wins
// its try-lock pops as much of the remaining batch as its sub-queue holds
// under that one lock; the buffer-less sweep remains the emptiness oracle.
func (h *Handle) DeleteMinN(dst []pq.KV, n int) int {
	if n > len(dst) {
		n = len(dst)
	}
	if n <= 0 {
		return 0
	}
	qs := h.q.queues()
	got := 0
	for got < n {
		progressed := false
		for attempt := 0; attempt < 3*len(qs); attempt++ {
			pick, min := sampleTwo(qs, h.rng)
			if min == emptyKey {
				continue // both sampled queues look empty; resample
			}
			s := qs[pick]
			if chaos.ShouldFail(chaos.MQLock) || !s.mu.TryLock() {
				continue
			}
			// dst[got:got] has room for n-got items, so popN fills dst
			// in place.
			m := len(s.popN(dst[got:got], n-got))
			s.mu.Unlock()
			if m > 0 {
				got += m
				progressed = true
				break
			}
		}
		if !progressed {
			k, v, ok := h.sweep()
			if !ok {
				break // queue appeared empty mid-batch
			}
			dst[got] = pq.KV{Key: k, Value: v}
			got++
		}
	}
	return got
}

var _ pq.BatchInserter = (*EHandle)(nil)
var _ pq.BatchDeleter = (*EHandle)(nil)

// InsertN implements pq.BatchInserter. Batches route through the sorted
// insertion buffer so the scalar path's local handoff survives batching:
// a buffered batch is visible to the handle's own DeleteMin/DeleteMinN
// (the insertion buffer competes as a deletion source), and in mixed
// workloads most batch items never touch a sub-queue lock at all. The
// buffer is granted one batch width of headroom before spilling — a batch
// is one synchronization episode, and the next delete batch gets the
// chance to compete it away — because the scalar spill threshold (b)
// would otherwise force a publish on every batch of width >= b, which is
// exactly the width-8 regression this path had. Only a batch that dwarfs
// the buffer (>= 2b) skips it: pending buffer and batch are published
// together under one sub-queue lock, a pre-made flush.
func (h *EHandle) InsertN(kvs []pq.KV) {
	n := len(kvs)
	if n == 0 {
		return
	}
	h.mu.Lock()
	if n >= 2*h.q.buf {
		h.tel.Inc(telemetry.MQInsFlush)
		// Failpoint: stall the flush while h.mu is held, so sweeps and
		// steals from other handles pile up against the batch.
		chaos.Perturb(chaos.MQFlush)
		s := h.lockForInsert()
		s.push(h.ins)
		h.ins = h.ins[:0]
		s.push(kvs)
		s.mu.Unlock()
	} else {
		if len(h.ins) >= h.q.buf {
			// Spill the stale pending items first and keep the fresh batch
			// local: the next delete batch competes for the newest keys.
			// The buffer stays below b + batch width either way.
			h.flushInsLocked()
		}
		for _, kv := range kvs {
			h.pushInsLocked(kv)
		}
	}
	h.mu.Unlock()
}

// DeleteMinN implements pq.BatchDeleter: the deletion buffer (with the
// insertion buffer competing, as in the scalar path) serves the batch
// under one h.mu acquisition, refilling with the remaining batch width so
// one sub-queue lock feeds the rest of the batch. Stickiness governs the
// refill targets exactly as in the scalar path.
func (h *EHandle) DeleteMinN(dst []pq.KV, n int) int {
	if n > len(dst) {
		n = len(dst)
	}
	if n <= 0 {
		return 0
	}
	got := 0
	h.mu.Lock()
	for got < n {
		if m := len(h.del); m > 0 {
			if len(h.ins) > 0 && h.ins[0].Key < h.del[m-1].Key {
				dst[got] = h.takeInsLocked()
			} else {
				dst[got] = h.del[m-1]
				h.del = h.del[:m-1]
			}
			got++
			continue
		}
		want := h.q.buf
		if rest := n - got; rest > want {
			want = rest
		}
		it, found := h.refillNLocked(want)
		if found {
			dst[got] = it
			got++
			continue
		}
		// Sampling found everything empty: consult the buffer-aware sweep,
		// which must run without h.mu held (the registry includes h).
		h.mu.Unlock()
		k, v, ok := h.sweepBuffered()
		if !ok {
			return got
		}
		dst[got] = pq.KV{Key: k, Value: v}
		got++
		h.mu.Lock()
	}
	h.mu.Unlock()
	return got
}
