package durable

import (
	"errors"
	"fmt"
	"sort"

	"cpq/internal/durable/kv"
	"cpq/internal/pq"
)

// recoveredState is what a store replay yields: the exact live multiset,
// plus the bookkeeping the reopened queue continues from.
type recoveredState struct {
	items    []pq.KV       // live set, sorted (key, then value) — deterministic
	nextSeg  uint64        // first segment index the new WAL may write
	nextSnap uint64        // next snapshot index to use
	base     map[pq.KV]int // live multiset as of baseSeg (the snapshot base)
	baseSeg  uint64        // first segment NOT folded into base
}

// applySegRecords folds one WAL segment's records into counts. The
// recovery invariant (DESIGN.md §8d): records were appended under the
// queue's op mutex, so log order is operation order and a delete always
// follows the insert that produced its item — a negative count proves
// corruption, not reordering. Snapshot-begin markers are replay-inert;
// partial-snapshot chunks never legally appear inside a WAL segment.
func applySegRecords(data []byte, segIdx uint64, counts map[pq.KV]int) error {
	return decodeRecords(data, func(kind byte, kvs []pq.KV) error {
		switch kind {
		case recInsert:
			for _, it := range kvs {
				counts[it]++
			}
		case recDelete:
			for _, it := range kvs {
				counts[it]--
				if counts[it] < 0 {
					return fmt.Errorf("%w: delete of (%d,%d) with no matching insert in segment %d",
						ErrCorrupt, it.Key, it.Value, segIdx)
				}
				if counts[it] == 0 {
					delete(counts, it)
				}
			}
		case recSnapBegin:
			// Forensic marker; the snapshot's effect lives in the manifest.
		default:
			return fmt.Errorf("%w: partial-snapshot chunk inside WAL segment %d", ErrCorrupt, segIdx)
		}
		return nil
	})
}

// foldSegments folds the WAL segments in [from, to) into counts, in
// order. Segments below tornOK may legally end in a torn record (they
// were recovered from a previous process, whose final unsynced append a
// crash could truncate); the torn record was never acknowledged, so it
// is dropped. A torn record in a segment this process sealed — or a
// missing segment in the range — is corruption. The concurrent
// snapshotter uses this over its frozen prefix; recovery uses the same
// fold so the two can never disagree about what a segment means.
func foldSegments(store kv.Store, from, to uint64, counts map[pq.KV]int, tornOK uint64) error {
	for idx := from; idx < to; idx++ {
		data, found, err := store.Get(segKey(idx))
		if err != nil {
			return err
		}
		if !found {
			// Rotation can skip creating a segment that never received a
			// synced byte (a seal cuts to a fresh segment that the next
			// seal may immediately supersede). An absent segment holds no
			// records; it cannot change the fold.
			continue
		}
		err = applySegRecords(data, idx, counts)
		if errors.Is(err, ErrTorn) && idx < tornOK {
			err = nil // legal torn tail: unacknowledged final record dropped
		}
		if err != nil {
			return fmt.Errorf("WAL segment %d: %w", idx, err)
		}
	}
	return nil
}

// decodePart validates and expands one partial snapshot: a sequence of
// kind-4 chunk records whose pair total must equal the manifest's count.
// Parts are synced before their manifest commits, so under a committed
// manifest there is no legal torn state — any decode failure is
// corruption.
func decodePart(data []byte, wantCount uint64, counts map[pq.KV]int) error {
	var got uint64
	err := decodeRecords(data, func(kind byte, kvs []pq.KV) error {
		if kind != recSnapChunk {
			return fmt.Errorf("%w: record kind %d inside a partial snapshot", ErrCorrupt, kind)
		}
		for _, it := range kvs {
			counts[it]++
		}
		got += uint64(len(kvs))
		return nil
	})
	if err != nil {
		if errors.Is(err, ErrTorn) {
			return fmt.Errorf("%w: torn partial snapshot under a committed manifest", ErrCorrupt)
		}
		return err
	}
	if got != wantCount {
		return fmt.Errorf("%w: partial snapshot holds %d pairs, manifest says %d",
			ErrCorrupt, got, wantCount)
	}
	return nil
}

// replayStore reconstructs the live set from a store: the newest
// committed snapshot base (manifest + chunked part), then every WAL
// segment at or above the base's nextSeg, in order. A torn final record
// is tolerated only at the very end of the newest segment — the one spot
// a crash between Append and Sync can legally leave one. The operation
// it belonged to was never acknowledged, so dropping it is correct.
//
// nextSnap is claimed past every snapshot index that exists in any form
// — committed manifests and orphan parts from attempts that died before
// their manifest — so a fresh snapshot never appends onto a torn orphan.
func replayStore(store kv.Store) (recoveredState, error) {
	var st recoveredState
	counts := make(map[pq.KV]int)

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
		} else if err := decodePart(part, count, counts); err != nil {
			return st, fmt.Errorf("part %s: %w", partKey(idx), err)
		}
		st.nextSeg = nextSeg
		loaded = true
	}
	// The base multiset — the live set as of nextSeg — seeds the
	// reopened queue's incremental snapshot cache, so the first snapshot
	// of the new process only folds the tail, not history.
	st.baseSeg = st.nextSeg
	st.base = make(map[pq.KV]int, len(counts))
	for it, c := range counts {
		st.base[it] = c
	}

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
	sort.Slice(live, func(a, b int) bool { return live[a] < live[b] })

	for n, idx := range live {
		data, found, err := store.Get(segKey(idx))
		if err != nil {
			return st, err
		}
		if !found {
			continue
		}
		err = applySegRecords(data, idx, counts)
		if errors.Is(err, ErrTorn) && n == len(live)-1 {
			err = nil // legal torn tail: unacknowledged final record dropped
		}
		if err != nil {
			return st, fmt.Errorf("WAL segment %d: %w", idx, err)
		}
		if idx >= st.nextSeg {
			st.nextSeg = idx + 1
		}
	}

	st.items = flattenCounts(counts)
	return st, nil
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
