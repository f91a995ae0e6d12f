package spray

import (
	"cpq/internal/chaos"
	"cpq/internal/pq"
	"cpq/internal/skiplist"
	"cpq/internal/telemetry"
)

// Batch-first paths (DESIGN.md §4c). A spray's dominant cost is the
// randomized descent itself, so the batch delete pays ONE spray for the
// whole batch and claims a forward run of nodes from the landing point —
// the batch behaves like n sprays that all landed in the same stretch of
// the candidate set, with one physical unlink pass (a single helping Find
// past the highest claimed key) instead of one per item. Batch inserts go
// through the substrate's InsertRun: one arena claim, one full descent,
// window reuse across the sorted keys.

var _ pq.BatchInserter = (*Handle)(nil)
var _ pq.BatchDeleter = (*Handle)(nil)

// InsertN implements pq.BatchInserter. The batch is sorted ascending in
// place (caller-owned per the contract) and spliced as a run.
func (h *Handle) InsertN(kvs []pq.KV) {
	if len(kvs) == 0 {
		return
	}
	pq.SortKVs(kvs)
	h.sh.InsertRun(kvs, h.rng)
}

// DeleteMinN implements pq.BatchDeleter. Up to two sprays each claim a
// forward run; if the batch is still short (misses, or a drained landing
// region) the strict head scan finishes it and doubles as the emptiness
// check, exactly as in the scalar path.
func (h *Handle) DeleteMinN(dst []pq.KV, n int) int {
	if n > len(dst) {
		n = len(dst)
	}
	if n <= 0 {
		return 0
	}
	got := 0
	const sprayAttempts = 2
	for attempt := 0; attempt < sprayAttempts && got < n; attempt++ {
		m := h.sprayRun(dst[got:], n-got)
		if m == 0 {
			h.tel.Inc(telemetry.SprayMiss)
		}
		got += m
	}
	if got < n {
		h.tel.Inc(telemetry.SprayFallback)
		// Failpoint: stall at fallback entry so concurrent deleters contend
		// on the strict head scan.
		chaos.Perturb(chaos.SprayFallback)
		got += h.claimRun(h.q.list.Head(), dst[got:], n-got, 0)
	}
	return got
}

// sprayRun performs one spray walk and claims up to max nodes from the
// landing region into dst, returning how many it claimed.
func (h *Handle) sprayRun(dst []pq.KV, max int) int {
	landing, ok := h.sprayWalk()
	if !ok {
		return 0
	}
	return h.claimRun(landing, dst, max, scanLimit+max)
}

// claimRun claims up to max live nodes walking level 0 from `from`
// (exclusive of the head sentinel), marks each claimed tower, and performs
// ONE physical unlink pass over the whole run at the end. limit bounds the
// number of nodes visited; limit <= 0 scans unbounded — the fallback scan
// must reach the end of the list so a short batch reliably means empty,
// exactly like the scalar fallback.
func (h *Handle) claimRun(from skiplist.Node, dst []pq.KV, max int, limit int) int {
	q := h.q
	head := q.list.Head()
	curr := from
	got := 0
	var last skiplist.Node
	for i := 0; !curr.IsNil() && got < max && (limit <= 0 || i < limit); i++ {
		if curr != head && !curr.IsClaimed() && !curr.DeletedAt0() && curr.TryClaim() {
			curr.MarkTower()
			dst[got] = pq.KV{Key: curr.Key(), Value: curr.Value()}
			got++
			last = curr
		}
		curr, _ = curr.Next(0)
	}
	if got > 0 {
		// One helping Find for the largest claimed key unlinks every marked
		// node on its path — the whole run in a single restructuring pass.
		q.list.Unlink(last)
	}
	return got
}
