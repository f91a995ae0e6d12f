package core

import (
	"slices"

	"cpq/internal/chaos"
	"cpq/internal/pq"
	"cpq/internal/telemetry"
)

// Batch-first paths of the k-LSM family (DESIGN.md §4c).
//
// The k-LSM already amortizes internally — evicted blocks are batch-merged
// into the SLSM, delete_min takes short pivot runs under one state load —
// but the scalar API re-pays the per-operation overheads (lock round trip,
// single-item block build and merge cascade) n times per n items. The
// native InsertN builds ONE sorted block from the whole batch and runs ONE
// merge cascade; when it overflows the local component, the eviction is
// ONE SLSM CAS publish carrying the batch. DeleteMinN holds the local lock
// across the batch and drains the run buffer and pivot prefix with at most
// one takeRun state load per sharedRunMax items.

var _ pq.BatchInserter = (*Handle)(nil)
var _ pq.BatchDeleter = (*Handle)(nil)

// sortItems sorts a run of items ascending by key (stable order among
// equal keys is irrelevant: ties may be served in either order anyway).
func sortItems(run []*item) {
	slices.SortFunc(run, func(a, b *item) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		default:
			return 0
		}
	})
}

// InsertN implements pq.BatchInserter: one sorted local block build and at
// most one eviction publish for the whole batch.
func (h *Handle) InsertN(kvs []pq.KV) {
	n := len(kvs)
	if n == 0 {
		return
	}
	l := h.local
	l.mu.Lock()
	run := l.scratchFor(n)
	for _, kv := range kvs {
		run = append(run, h.alloc.new(kv.Key, kv.Value))
	}
	sortItems(run)
	l.insertBlockLocked(run)
	var evicted []*item
	if l.sizeLocked() > h.q.k {
		evicted = l.evictLargestLocked()
	}
	l.mu.Unlock()
	if len(evicted) > 0 {
		h.tel.Inc(telemetry.LocalEvict)
		// The batch's single CAS publish; chaos can force a mid-batch loss
		// here (failpoint batch-publish), which redoes the merge — the
		// retry must neither drop nor double any batch item.
		h.q.slsm.insertBatchFP(evicted, h.tel, chaos.BatchPublish)
	}
}

// DeleteMinN implements pq.BatchDeleter: the scalar DeleteMin decision per
// item — run-buffer head vs local minimum vs fresh pivot run — but under
// one lock acquisition for the whole batch, releasing it only to spy or to
// fall back to the shared component when the local side drains. Each
// returned item individually satisfies the kP bound (plus the documented
// run-buffer holdover); the batch only shares the synchronization.
func (h *Handle) DeleteMinN(dst []pq.KV, n int) int {
	if n > len(dst) {
		n = len(dst)
	}
	if n <= 0 {
		return 0
	}
	got := 0
	l := h.local
	// Failpoint: stall before taking the local lock so a spy can steal the
	// run buffer (or the local minimum) out from under the whole batch.
	chaos.Perturb(chaos.KLSMRunBuffer)
	l.mu.Lock()
	for got < n {
		bi, ii, lkey, lok := l.peekMinLocked()
		if h.srunPos < h.srunEnd {
			if rit := h.srun[h.srunPos]; !lok || rit.key <= lkey {
				it := h.popRunLocked()
				dst[got] = pq.KV{Key: it.key, Value: it.value}
				got++
				continue
			}
			if it, won := l.takeAtLocked(bi, ii); won {
				dst[got] = pq.KV{Key: it.key, Value: it.value}
				got++
				continue
			}
			h.tel.Inc(telemetry.CASItemTakeFail)
			continue // a spy took our local minimum under us; retry
		}
		if lok {
			run := h.q.slsm.takeRun(h.rng, lkey, h.srun[:0], sharedRunMax, h.tel)
			if len(run) > 0 {
				h.tel.Inc(telemetry.SharedRunTake)
				h.tel.Add(telemetry.SharedRunItems, uint64(len(run)))
				h.srunPos, h.srunEnd = 0, len(run)
				it := h.popRunLocked()
				dst[got] = pq.KV{Key: it.key, Value: it.value}
				got++
				continue
			}
			if it, won := l.takeAtLocked(bi, ii); won {
				dst[got] = pq.KV{Key: it.key, Value: it.value}
				got++
				continue
			}
			h.tel.Inc(telemetry.CASItemTakeFail)
			continue
		}
		// Local side empty: spying and the shared fallback follow the
		// scalar path's locking discipline (no local lock held).
		l.mu.Unlock()
		if h.spy() {
			l.mu.Lock()
			continue
		}
		run := h.q.slsm.takeRun(h.rng, ^uint64(0), h.srun[:0], sharedRunMax, h.tel)
		if len(run) == 0 {
			// Queue appeared empty mid-batch: return the short count.
			return got
		}
		h.tel.Inc(telemetry.SharedRunTake)
		h.tel.Add(telemetry.SharedRunItems, uint64(len(run)))
		l.mu.Lock()
		h.srunPos, h.srunEnd = 0, len(run)
	}
	l.mu.Unlock()
	return got
}

var _ pq.BatchInserter = (*slsmHandle)(nil)
var _ pq.BatchDeleter = (*slsmHandle)(nil)

// InsertN implements pq.BatchInserter for the standalone SLSM: the whole
// batch becomes one sorted block published by a single CAS (the scalar
// Insert pays one merge-and-publish per item). The items array is donated
// to the immutable shared block, so it is freshly allocated per call —
// exactly as the scalar path allocates per item, only n times less often.
func (h *slsmHandle) InsertN(kvs []pq.KV) {
	n := len(kvs)
	if n == 0 {
		return
	}
	items := make([]*item, 0, n)
	for _, kv := range kvs {
		items = append(items, h.alloc.new(kv.Key, kv.Value))
	}
	sortItems(items)
	h.q.s.insertBatchFP(items, h.tel, chaos.BatchPublish)
}

// DeleteMinN implements pq.BatchDeleter for the standalone SLSM: pivot
// runs of up to the remaining batch size are taken under one state load
// each, into a scratch buffer the handle reuses across calls (items are
// copied out; the scratch never escapes).
func (h *slsmHandle) DeleteMinN(dst []pq.KV, n int) int {
	if n > len(dst) {
		n = len(dst)
	}
	if n <= 0 {
		return 0
	}
	got := 0
	for got < n {
		run := h.q.s.takeRun(h.rng, ^uint64(0), h.drain[:0], n-got, h.tel)
		if len(run) == 0 {
			break
		}
		for _, it := range run {
			dst[got] = pq.KV{Key: it.key, Value: it.value}
			got++
		}
		clear(run) // drop item pointers so the scratch cannot pin slabs
		h.drain = run[:0]
	}
	return got
}
