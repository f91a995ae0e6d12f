package lotan

import (
	"cpq/internal/pq"
	"cpq/internal/skiplist"
	"cpq/internal/telemetry"
)

// Batch-first paths (DESIGN.md §4c). The scalar delete pays a head scan
// plus a full physical unlink per item — the head contention this design
// is known for. The batch delete claims a run of up to n nodes in ONE scan
// and removes them with ONE helping pass, so a batch costs one traversal
// of the (shared) head region instead of n. Batch inserts ride the
// substrate's InsertRun: one arena claim, window reuse across sorted keys.

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

// DeleteMinN implements pq.BatchDeleter: one bottom-level scan from the
// head claims up to n nodes in passing order (each claim is the same
// TryClaim the scalar path performs, so each item is a first-unclaimed
// node at its claim instant), marks every claimed tower, and physically
// removes the whole run with one helping Find past the largest claimed
// key. A short return means the scan reached the end of the list.
func (h *Handle) DeleteMinN(dst []pq.KV, n int) int {
	if n > len(dst) {
		n = len(dst)
	}
	if n <= 0 {
		return 0
	}
	l := h.q.list
	curr, _ := l.Head().Next(0)
	fails := uint64(0)
	got := 0
	var last skiplist.Node
	for !curr.IsNil() && got < n {
		if !curr.IsClaimed() && !curr.DeletedAt0() && curr.TryClaim() {
			curr.MarkTower()
			dst[got] = pq.KV{Key: curr.Key(), Value: curr.Value()}
			got++
			last = curr
		} else {
			fails++
		}
		curr, _ = curr.Next(0)
	}
	if got > 0 {
		l.Unlink(last)
	}
	if fails > 0 {
		h.tel.Add(telemetry.LotanClaimFail, fails)
	}
	return got
}
