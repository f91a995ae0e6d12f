package durable

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"cpq/internal/durable/kv"
	"cpq/internal/pq"
)

// recoveredState is what a store replay yields: the exact live multiset,
// plus the bookkeeping the reopened queue continues from. The live set
// is also the reopened snapshotter's base, as of nextSeg: the first
// snapshot of the new process folds only the segments it writes itself.
type recoveredState struct {
	items    []pq.KV // live set, sorted (key, then value) — deterministic
	nextSeg  uint64  // first segment index the new WAL may write
	nextSnap uint64  // next snapshot index to use
}

// segmentRecords walks one WAL segment's operation records in log order,
// handing fn each insert batch (del = false) and delete batch.
// Snapshot-begin markers are replay-inert; partial-snapshot chunks never
// legally appear inside a WAL segment. A torn final record is dropped
// when newest is set — the end of a crashed store's newest segment is
// the one spot a crash between Append and Sync can leave one, and the
// operation it belonged to was never acknowledged — and is corruption
// anywhere else: every other segment was synced whole before the next
// one was cut. Recovery and the snapshot fold both read segments
// through it, so the two can never disagree about what a segment means.
func segmentRecords(data []byte, segIdx uint64, newest bool, fn func(del bool, kvs []pq.KV) error) error {
	err := decodeRecords(data, func(kind byte, kvs []pq.KV) error {
		switch kind {
		case recInsert, recDelete:
			return fn(kind == recDelete, kvs)
		case recSnapBegin:
			return nil // forensic marker; the snapshot's effect lives in the manifest
		default:
			return fmt.Errorf("%w: partial-snapshot chunk inside WAL segment %d", ErrCorrupt, segIdx)
		}
	})
	if errors.Is(err, ErrTorn) {
		if newest {
			return nil // unacknowledged final record dropped
		}
		return fmt.Errorf("%w: %w, and it is not the newest", ErrCorrupt, err)
	}
	return err
}

// liveSet is the snapshotter's cached live multiset: a sorted slice of
// items, advanced one frozen segment range at a time, plus the scratch
// the advance reuses. A sorted slice rather than a map from item to
// count: it is a third the size of a fresh map, it does not grow under
// the churn of folding (a map's deleted slots keep it growing), it is
// updated in place, and the snapshot writes it out chunk by chunk
// without building a sorted copy.
type liveSet struct {
	items    []pq.KV // sorted by (key, value)
	ins, del []pq.KV // scratch: the folded range's inserts and deletes
}

// fold advances the set over the WAL segments in [from, to): their
// inserted pairs merged in, their deleted pairs taken out. Every segment
// it reads was sealed by this process (recovery hands the snapshotter a
// base as of the first segment the new WAL writes), so a torn record is
// corruption. A delete must match an item of the set or of the folded
// inserts; one that matches nothing is corruption too. A missing segment
// holds no records: rotation can skip creating a segment that never
// received a synced byte (a seal cuts to a fresh segment that the next
// seal may immediately supersede). On error the set is unchanged.
func (ls *liveSet) fold(store kv.Store, from, to uint64) error {
	ins, del := ls.ins[:0], ls.del[:0]
	for idx := from; idx < to; idx++ {
		data, found, err := store.Get(segKey(idx))
		if err != nil {
			return err
		}
		if !found {
			continue
		}
		err = segmentRecords(data, idx, false, func(isDel bool, kvs []pq.KV) error {
			if isDel {
				del = append(del, kvs...)
			} else {
				ins = append(ins, kvs...)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("WAL segment %d: %w", idx, err)
		}
	}
	ls.ins, ls.del = ins, del // keep the grown scratch for the next fold
	slices.SortFunc(ins, cmpKV)
	slices.SortFunc(del, cmpKV)

	// Check every delete against the set and the inserts before changing
	// either: walk the three sorted runs together.
	items := ls.items
	for i, j, d := 0, 0, 0; d < len(del); d++ {
		for i < len(items) && cmpKV(items[i], del[d]) < 0 {
			i++
		}
		for j < len(ins) && cmpKV(ins[j], del[d]) < 0 {
			j++
		}
		switch {
		case i < len(items) && items[i] == del[d]:
			i++
		case j < len(ins) && ins[j] == del[d]:
			j++
		default:
			return fmt.Errorf("%w: delete of (%d,%d) with no matching insert in WAL segments [%d,%d)",
				ErrCorrupt, del[d].Key, del[d].Value, from, to)
		}
	}
	ls.items = mergeSorted(items, ins, del)
	return nil
}

// mergeSorted applies a batch of changes to a sorted multiset in place:
// it takes one occurrence of each del pair out of items ∪ ins, then
// merges the surviving inserts into items from the back, and returns
// the grown items. All three runs are sorted, and every del pair must
// occur in items or ins (the caller checks this first). The snapshot
// fold and the recovery replay both change a sorted base through it.
func mergeSorted(items, ins, del []pq.KV) []pq.KV {
	items, ins = removeSorted(items, ins, del)
	n, i := len(items)+len(ins), len(items)-1
	items = slices.Grow(items, len(ins))[:n]
	for j, k := len(ins)-1, n-1; j >= 0; k-- {
		if i >= 0 && cmpKV(items[i], ins[j]) > 0 {
			items[k], i = items[i], i-1
		} else {
			items[k], j = ins[j], j-1
		}
	}
	return items
}

// removeSorted takes one occurrence of each del pair out of a ∪ b, all
// three sorted, compacting a and b in place; a pair in both goes from a.
// Every del pair must occur.
func removeSorted(a, b, del []pq.KV) ([]pq.KV, []pq.KV) {
	var ar, aw, br, bw int
	for _, d := range del {
		for ar < len(a) && cmpKV(a[ar], d) < 0 {
			a[aw], aw, ar = a[ar], aw+1, ar+1
		}
		for br < len(b) && cmpKV(b[br], d) < 0 {
			b[bw], bw, br = b[br], bw+1, br+1
		}
		if ar < len(a) && a[ar] == d {
			ar++
		} else {
			br++
		}
	}
	aw += copy(a[aw:], a[ar:])
	bw += copy(b[bw:], b[br:])
	return a[:aw], b[:bw]
}

// decodePart validates and expands one partial snapshot: a sequence of
// kind-4 chunk records whose pair total must equal the manifest's count.
// Parts are synced before their manifest commits, so under a committed
// manifest there is no legal torn state — any decode failure is
// corruption.
func decodePart(data []byte, wantCount uint64) ([]pq.KV, error) {
	// Every pair takes 16 bytes of the part, so a lying count cannot
	// force a larger allocation than the part itself.
	items := make([]pq.KV, 0, min(wantCount, uint64(len(data)/recPair)))
	err := decodeRecords(data, func(kind byte, kvs []pq.KV) error {
		if kind != recSnapChunk {
			return fmt.Errorf("%w: record kind %d inside a partial snapshot", ErrCorrupt, kind)
		}
		items = append(items, kvs...)
		return nil
	})
	if err != nil {
		if errors.Is(err, ErrTorn) {
			return nil, fmt.Errorf("%w: torn partial snapshot under a committed manifest", ErrCorrupt)
		}
		return nil, err
	}
	if got := uint64(len(items)); got != wantCount {
		return nil, fmt.Errorf("%w: partial snapshot holds %d pairs, manifest says %d",
			ErrCorrupt, got, wantCount)
	}
	return items, nil
}

// replayStore reconstructs the live set from a store: the newest
// committed snapshot base (manifest + chunked part), then every WAL
// segment at or above the base's nextSeg, in order. A torn final record
// is tolerated only at the very end of the newest segment (see
// segmentRecords).
//
// The base is already sorted, so only the tail's changes are sorted:
// the tail is replayed into the net change per pair, and those changes
// are merged into the base (DESIGN.md §8d).
//
// nextSnap is claimed past every snapshot index that exists in any form
// — committed manifests and orphan parts from attempts that died before
// their manifest — so a fresh snapshot never appends onto a torn orphan.
func replayStore(store kv.Store) (recoveredState, error) {
	var st recoveredState

	manifests, err := store.List("manifest/")
	if err != nil {
		return st, err
	}
	parts, err := store.List("part/")
	if err != nil {
		return st, err
	}
	for _, keys := range [][]string{manifests, parts} {
		for _, k := range keys {
			for _, pfx := range []string{"manifest/", "part/"} {
				if i, ok := parseIndexed(k, pfx); ok && i >= st.nextSnap {
					st.nextSnap = i + 1
				}
			}
		}
	}

	// Newest committed manifest wins.
	var base []pq.KV
	loaded := false
	for i := len(manifests) - 1; i >= 0 && !loaded; i-- {
		idx, ok := parseIndexed(manifests[i], "manifest/")
		if !ok {
			continue
		}
		data, found, err := store.Get(manifests[i])
		if err != nil {
			return st, err
		}
		if !found {
			continue
		}
		nextSeg, count, err := decodeManifest(data)
		if err != nil {
			return st, fmt.Errorf("manifest %s: %w", manifests[i], err)
		}
		part, found, err := store.Get(partKey(idx))
		if err != nil {
			return st, err
		}
		if !found {
			if count != 0 {
				return st, fmt.Errorf("%w: manifest %s committed but its part is missing",
					ErrCorrupt, manifests[i])
			}
		} else if base, err = decodePart(part, count); err != nil {
			return st, fmt.Errorf("part %s: %w", partKey(idx), err)
		}
		st.nextSeg = nextSeg
		loaded = true
	}
	// Snapshots write their parts sorted; sorting again costs one pass
	// over sorted input and keeps the merge correct whatever the part
	// holds.
	slices.SortFunc(base, cmpKV)

	segs, err := store.List("wal/")
	if err != nil {
		return st, err
	}
	var live []uint64
	for _, k := range segs {
		if i, ok := parseIndexed(k, "wal/"); ok && i >= st.nextSeg {
			live = append(live, i)
		}
	}
	slices.Sort(live)

	// Records were appended under the queue's op mutex, so log order is
	// operation order and a delete always follows the insert that
	// produced its item. A delete that takes a pair's base copies plus
	// net change below zero proves corruption, not reordering. The base
	// is not counted: a pair's copies in it are found by binary search,
	// and only when a delete leaves the pair's net change negative.
	delta := make(map[pq.KV]int)
	for n, idx := range live {
		data, found, err := store.Get(segKey(idx))
		if err != nil {
			return st, err
		}
		if !found {
			continue
		}
		err = segmentRecords(data, idx, n == len(live)-1, func(del bool, kvs []pq.KV) error {
			for _, it := range kvs {
				d := delta[it]
				if del {
					d--
				} else {
					d++
				}
				if del && d < 0 && copiesOf(base, it)+d < 0 {
					return fmt.Errorf("%w: delete of (%d,%d) with no matching insert in segment %d",
						ErrCorrupt, it.Key, it.Value, idx)
				}
				if d == 0 {
					delete(delta, it)
				} else {
					delta[it] = d
				}
			}
			return nil
		})
		if err != nil {
			return st, fmt.Errorf("WAL segment %d: %w", idx, err)
		}
		st.nextSeg = idx + 1
	}

	ins := make([]pq.KV, 0, len(delta))
	var del []pq.KV
	for it, d := range delta {
		for ; d > 0; d-- {
			ins = append(ins, it)
		}
		for ; d < 0; d++ {
			del = append(del, it)
		}
	}
	slices.SortFunc(ins, cmpKV)
	slices.SortFunc(del, cmpKV)
	if len(base) == 0 {
		st.items = ins // no base copies, so the check left no deletes
	} else {
		st.items = mergeSorted(base, ins, del)
	}
	return st, nil
}

// copiesOf counts the occurrences of it in the sorted items.
func copiesOf(items []pq.KV, it pq.KV) int {
	lo, _ := slices.BinarySearchFunc(items, it, cmpKV)
	return sort.Search(len(items)-lo, func(i int) bool { return items[lo+i] != it })
}

// ReplayStore reconstructs the live item multiset a store holds, sorted
// by (key, value) — the same deterministic order for identical stores,
// which is what the kill/recover harness's byte-identical check relies
// on. It is read-only: forensics can replay a copied directory while the
// real store is live elsewhere.
func ReplayStore(store kv.Store) ([]pq.KV, error) {
	st, err := replayStore(store)
	if err != nil {
		return nil, err
	}
	return st.items, nil
}

// cmpKV orders pairs by key, then value: the order of every sorted item
// slice in this package.
func cmpKV(a, b pq.KV) int {
	if c := cmp.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.Value, b.Value)
}
