package linden

import (
	"cpq/internal/pq"
	"cpq/internal/skiplist"
	"cpq/internal/telemetry"
)

// Batch-first paths (DESIGN.md §4c). For this queue a batch amortizes the
// two costs its scalar operations pay per item: the predecessor search
// (InsertN sorts the batch and reuses each key's window as the seed of the
// next search) and the dead-prefix walk (DeleteMinN claims a run of live
// nodes in ONE walk from the head and does at most one restructure for the
// whole batch, instead of re-walking the prefix once per deleted item).

var _ pq.BatchInserter = (*Handle)(nil)
var _ pq.BatchDeleter = (*Handle)(nil)

// InsertN implements pq.BatchInserter. The batch is sorted ascending in
// place (caller-owned per the contract); the arena hands out the whole
// batch's nodes from one slab, and each splice after the first resumes the
// predecessor search from the previous key's window (findFrom).
func (h *Handle) InsertN(kvs []pq.KV) {
	n := len(kvs)
	if n == 0 {
		return
	}
	pq.SortKVs(kvs)
	h.sh.Reserve(n * 6)
	var preds [skiplist.MaxHeight]skiplist.Node
	var succRefs [skiplist.MaxHeight]skiplist.Ref
	retries := uint64(0)
	for i, kv := range kvs {
		height := skiplist.RandomHeight(h.rng)
		node := h.sh.NewNode(kv.Key, kv.Value, height)
		retries += h.q.spliceAndRaise(node, kv.Key, height, &preds, &succRefs, i > 0)
	}
	if retries > 0 {
		h.tel.Add(telemetry.LindenSpliceRetry, retries)
	}
}

// DeleteMinN implements pq.BatchDeleter: one dead-prefix walk claims up to
// n live nodes in passing order (each claim is the same validated level-0
// CAS as the scalar DeleteMin, so each item individually meets the strict
// bound at its linearization point). The walked prefix — pre-existing dead
// nodes plus the ones this call kills — is counted once against the
// restructure threshold, giving at most one physical cleanup per batch.
func (h *Handle) DeleteMinN(dst []pq.KV, n int) int {
	if n > len(dst) {
		n = len(dst)
	}
	if n <= 0 {
		return 0
	}
	q := h.q
	curr, _ := q.list.Head().Next(0)
	offset := 0
	got := 0
	for !curr.IsNil() && got < n {
		ref := curr.LoadRef(0)
		if ref.Marked() {
			offset++
			curr = ref.Node()
			continue
		}
		if curr.CASRef(0, ref, ref.Node(), true) {
			dst[got] = pq.KV{Key: curr.Key(), Value: curr.Value()}
			got++
			// curr is now part of the dead prefix we are standing in.
			offset++
			curr = ref.Node()
		}
		// CAS failed: either curr was deleted (advance via the fresh LoadRef
		// next iteration) or an insert spliced a node after curr (retry the
		// CAS against the fresh pointer).
	}
	if offset > 0 {
		h.tel.Add(telemetry.LindenDeadWalk, uint64(offset))
	}
	if offset >= q.boundOffset {
		h.restructure()
	}
	return got
}
