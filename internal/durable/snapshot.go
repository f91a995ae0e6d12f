package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"cpq/internal/chaos"
	"cpq/internal/durable/kv"
)

// Concurrent incremental snapshots (DESIGN.md §8c).
//
// A snapshot no longer touches the inner queue at all. The snapshotter
// seals the WAL — cutting a fresh segment, so everything below the cut
// is a frozen, fully-synced operation prefix — and computes the live set
// *of that prefix* by folding the frozen segments into a cached sorted
// multiset (base) that persists between snapshots, so each snapshot only
// reads the segments written since the previous one. The base itself is
// written, chunk by chunk, as partial-snapshot records under "part/%016x",
// concurrently with live traffic appending to segments at and above the
// cut, then committed with one atomic manifest write and truncated.
// Producers never park for more than one group-commit window: the only
// shared state a snapshot holds is the WAL mutex for the instants of the
// seal's buffer claim.
//
// On-store layout per snapshot index i:
//
//	part/%016x     — appended chunks, each a kind-4 WAL-framed record of
//	                 up to snapChunkItems (key,value) pairs; synced
//	                 before the manifest commits
//	manifest/%016x — u64 nextSeg (first segment NOT covered), u64 count
//	                 (total pairs across the chunks), u32 CRC-32/IEEE;
//	                 written with kv.Update, i.e. atomically — this
//	                 write IS the commit point
//
// Recovery trusts a part only through its manifest: an orphan part
// (crash before the manifest landed) is garbage, never read and never
// appended to (snapshot indices are claimed past every orphan), and is
// swept by the next successful snapshot's truncate.

// SnapPhase identifies a phase boundary of the concurrent snapshot;
// crash-capture tests clone the store at each to prove recovery works
// from every intermediate state.
type SnapPhase int

const (
	// SnapBegin: the WAL is sealed at the cut and the begin marker is in
	// the pending buffer; nothing snapshot-related is on the store yet.
	SnapBegin SnapPhase = iota
	// SnapChunk: at least one partial-snapshot chunk has been appended
	// (not necessarily synced); the manifest does not exist.
	SnapChunk
	// SnapPreManifest: every chunk is written and synced; the manifest
	// write is next. A crash here leaves a complete orphan part.
	SnapPreManifest
	// SnapPostManifest: the manifest is durable — the snapshot is
	// committed — but superseded segments are not yet truncated.
	SnapPostManifest
)

// snapChunkItems is the pair count per partial-snapshot chunk record:
// 16 KiB of pairs per append, small enough to interleave with live
// group commits on the same store, large enough to amortize framing.
const snapChunkItems = 1024

func partKey(i uint64) string     { return fmt.Sprintf("part/%016x", i) }
func manifestKey(i uint64) string { return fmt.Sprintf("manifest/%016x", i) }

// parseIndexed extracts the hex index from a "wal/%016x"-shaped key;
// ok is false for keys this package never wrote.
func parseIndexed(key, prefix string) (uint64, bool) {
	rest, found := strings.CutPrefix(key, prefix)
	if !found || len(rest) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// encodeManifest builds the 20-byte commit record: the first WAL segment
// NOT covered by the snapshot, the total pair count its part must hold,
// and a checksum.
func encodeManifest(nextSeg, count uint64) []byte {
	buf := make([]byte, 0, 8+8+4)
	buf = binary.BigEndian.AppendUint64(buf, nextSeg)
	buf = binary.BigEndian.AppendUint64(buf, count)
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

func decodeManifest(data []byte) (nextSeg, count uint64, err error) {
	if len(data) != 8+8+4 {
		return 0, 0, fmt.Errorf("%w: manifest is %d bytes, want 20", ErrCorrupt, len(data))
	}
	body, crc := data[:16], binary.BigEndian.Uint32(data[16:])
	if crc32.Checksum(body, crcTable) != crc {
		return 0, 0, fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	return binary.BigEndian.Uint64(body), binary.BigEndian.Uint64(body[8:]), nil
}

// takeSnapshot runs one concurrent incremental snapshot. Callers hold
// q.snapMu (one snapshotter at a time) and never q.mu — producers run
// freely throughout. Errors poison the WAL sticky, exactly like a failed
// commit; the previous snapshot plus the un-truncated WAL still cover
// every acknowledged item, so a failed snapshot loses nothing.
func (q *Queue) takeSnapshot() {
	snapIdx := q.nextSnap
	cut, err := q.w.seal()
	if err != nil {
		return // sticky error already recorded; surfaces via Err/Close
	}
	q.w.appendMarker(snapIdx, cut)
	q.snapPhase(SnapBegin)

	// Fold the segments frozen since the last snapshot into the cached
	// base multiset. Recovery hands over a base as of the first segment
	// this process writes, so every folded segment was sealed here.
	if err := q.base.fold(q.store, q.baseSeg, cut); err != nil {
		q.poison(err)
		return
	}
	q.baseSeg = cut
	base := q.base.items

	// Write the chunked part concurrently with live traffic, straight out
	// of the sorted base: each chunk is one WAL-framed kind-4 record
	// appended to the part key, and no copy of the live set is built.
	pk := partKey(snapIdx)
	var chunkBuf []byte
	for off := 0; off < len(base); off += snapChunkItems {
		chunkBuf = appendRecord(chunkBuf[:0], recSnapChunk, base[off:min(off+snapChunkItems, len(base))])
		if err := q.store.Append(pk, chunkBuf); err != nil {
			q.poison(err)
			return
		}
		if off == 0 {
			q.snapPhase(SnapChunk)
		}
	}
	if len(base) > 0 {
		// Make the chunks durable before the manifest can reference them.
		// This Sync may interleave with a commit leader's — harmless: the
		// store serializes barriers, and an extra fsync of the live WAL
		// segment only makes records durable sooner.
		if err := q.store.Sync(); err != nil {
			q.poison(err)
			return
		}
	}
	q.snapPhase(SnapPreManifest)
	chaos.Perturb(chaos.SnapManifest)

	// The commit point: one atomic manifest write.
	err = q.store.Update(func(tx kv.Tx) error {
		tx.Set(manifestKey(snapIdx), encodeManifest(cut, uint64(len(base))))
		return nil
	})
	if err != nil {
		q.poison(err)
		return
	}
	q.snapPhase(SnapPostManifest)

	// Truncate everything the committed snapshot supersedes: WAL segments
	// below the cut, and older manifests and parts (including orphans
	// from failed attempts).
	err = q.store.Update(func(tx kv.Tx) error {
		for _, pfx := range []string{"wal/", "manifest/", "part/"} {
			keys, err := tx.List(pfx)
			if err != nil {
				return err
			}
			bound := snapIdx
			if pfx == "wal/" {
				bound = cut
			}
			for _, k := range keys {
				if i, ok := parseIndexed(k, pfx); ok && i < bound {
					tx.Delete(k)
				}
			}
		}
		return nil
	})
	if err != nil {
		q.poison(err)
		return
	}
	q.nextSnap = snapIdx + 1
	q.snapshots.Add(1)
}

// snapPhase fires the test hook, if installed.
func (q *Queue) snapPhase(p SnapPhase) {
	if q.snapHook != nil {
		q.snapHook(p)
	}
}

// poison records a snapshot failure as the WAL's sticky error.
func (q *Queue) poison(err error) {
	q.w.mu.Lock()
	if q.w.err == nil {
		q.w.err = err
	}
	q.w.mu.Unlock()
}
