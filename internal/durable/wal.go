// Package durable wraps any pq.Queue with a write-ahead log and periodic
// snapshots over a pluggable kv.Store, so the live set survives a process
// crash and is reconstructed exactly on reopen (DESIGN.md §8).
//
// The layering is strict: this package knows nothing about which queue
// family it wraps (it logs through the pq batch capabilities) and nothing
// about how bytes reach disk (it persists through kv.Store). Group commit
// lives here, between the two: concurrent producers append records under
// the queue lock and then park on a commit ticket; one of them syncs the
// store once for the whole parked cohort.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"

	"cpq/internal/chaos"
	"cpq/internal/durable/kv"
	"cpq/internal/pq"
	"cpq/internal/telemetry"
)

// WAL record format (DESIGN.md §8a). All integers big-endian:
//
//	u32 len   — length of body (kind + count + pairs), excludes len and crc
//	u8  kind  — 1 = insert batch, 2 = delete batch,
//	            3 = snapshot-begin marker, 4 = partial-snapshot chunk
//	u16 count — number of (key,value) pairs
//	count × (u64 key, u64 value)
//	u32 crc   — IEEE CRC-32 over body
//
// A record is 4 + len + 4 bytes on the wire. Deletes log the pairs that
// actually came out of the inner queue — relaxed queues pop
// nondeterministically, so replay must not re-run the op, only re-apply
// its logged effect.
//
// Kind 3 (snapshot-begin) is a replay-inert forensic marker the
// concurrent snapshotter drops into the live WAL tail when it cuts a
// snapshot: one pair (snapshot index, cut segment). Replay skips it —
// the snapshot's effect is carried by the manifest, never by the marker.
// Kind 4 (partial-snapshot chunk) is legal only inside "part/..." keys;
// inside a WAL segment it is corruption, and vice versa for kinds 1-3
// inside a part.
const (
	recInsert    = 1
	recDelete    = 2
	recSnapBegin = 3
	recSnapChunk = 4

	recHeader  = 4         // u32 len
	recFixed   = 1 + 2     // kind + count
	recPair    = 16        // u64 key + u64 value
	recTrailer = 4         // u32 crc
	maxBatch   = 1<<16 - 1 // count is u16
	maxBody    = recFixed + maxBatch*recPair
)

// Decode errors. A torn tail (ErrTorn) is an incomplete final record —
// the expected shape after a crash between Append and Sync, tolerated
// only at the very end of the newest segment. Anything else (bad CRC,
// impossible length, torn bytes mid-log) is ErrCorrupt: the log is lying
// and replay must stop rather than guess.
var (
	ErrTorn    = errors.New("durable: torn record at end of WAL segment")
	ErrCorrupt = errors.New("durable: corrupt WAL record")
)

var crcTable = crc32.IEEETable

// appendRecord encodes one record onto buf and returns the extended
// slice. It allocates only when buf's capacity is exhausted, which is
// what the 0 allocs/op gate in wal_test.go pins down.
func appendRecord(buf []byte, kind byte, kvs []pq.KV) []byte {
	body := recFixed + len(kvs)*recPair
	buf = binary.BigEndian.AppendUint32(buf, uint32(body))
	start := len(buf)
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(kvs)))
	for _, kv := range kvs {
		buf = binary.BigEndian.AppendUint64(buf, kv.Key)
		buf = binary.BigEndian.AppendUint64(buf, kv.Value)
	}
	crc := crc32.Checksum(buf[start:], crcTable)
	return binary.BigEndian.AppendUint32(buf, crc)
}

// decodeRecords walks one segment's bytes, invoking fn for each intact
// record. The kvs slice passed to fn aliases data and is only valid
// during the call. Returns ErrTorn if the segment ends mid-record (the
// caller decides whether that position may legally be torn) and
// ErrCorrupt for checksum or structural violations.
func decodeRecords(data []byte, fn func(kind byte, kvs []pq.KV) error) error {
	scratch := make([]pq.KV, 0, 256)
	for off := 0; off < len(data); {
		if len(data)-off < recHeader {
			return ErrTorn
		}
		body := int(binary.BigEndian.Uint32(data[off:]))
		if body < recFixed || body > maxBody || (body-recFixed)%recPair != 0 {
			return fmt.Errorf("%w: impossible body length %d at offset %d", ErrCorrupt, body, off)
		}
		if len(data)-off < recHeader+body+recTrailer {
			return ErrTorn
		}
		rec := data[off+recHeader : off+recHeader+body]
		crc := binary.BigEndian.Uint32(data[off+recHeader+body:])
		if crc32.Checksum(rec, crcTable) != crc {
			return fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		kind := rec[0]
		if kind < recInsert || kind > recSnapChunk {
			return fmt.Errorf("%w: unknown record kind %d at offset %d", ErrCorrupt, kind, off)
		}
		count := int(binary.BigEndian.Uint16(rec[1:]))
		if count*recPair != body-recFixed {
			return fmt.Errorf("%w: count %d disagrees with body length %d at offset %d",
				ErrCorrupt, count, body, off)
		}
		scratch = scratch[:0]
		for i := 0; i < count; i++ {
			p := rec[recFixed+i*recPair:]
			scratch = append(scratch, pq.KV{
				Key:   binary.BigEndian.Uint64(p),
				Value: binary.BigEndian.Uint64(p[8:]),
			})
		}
		if err := fn(kind, scratch); err != nil {
			return err
		}
		off += recHeader + body + recTrailer
	}
	return nil
}

// segKey formats the store key of WAL segment i ("wal/%016x" — keys sort
// in segment order because the width is fixed).
func segKey(i uint64) string { return fmt.Sprintf("wal/%016x", i) }

// wal is the segmented group-commit log. Producers append records under
// the owning Queue's op mutex (so log order is operation order) and then
// call commitWait outside it; the first waiter becomes the commit leader,
// swaps the pending buffer for an empty spare, writes and syncs it, and
// wakes the cohort. Two buffers recycle forever, keeping the append path
// allocation-free at steady state.
type wal struct {
	store kv.Store
	tel   *telemetry.Shard

	// segBytes triggers rotation to a fresh segment once the current one
	// has at least this many synced bytes.
	segBytes int

	// crashHook, when non-nil, runs between writing the pending buffer to
	// the store and syncing it — the worst crash window. The kill test
	// installs a process-exit here; chaos.Perturb(WALFsync) fires at the
	// same point.
	crashHook func()

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []byte // records appended since the last buffer claim
	spare    []byte // the other buffer, empty, ready to swap in
	appended uint64 // LSN of the newest appended record
	synced   uint64 // LSN through which the store is durable
	leading  bool   // a leader currently owns a claimed buffer
	seg      uint64 // index of the segment being appended to
	segName  string // segKey(seg), cached to keep the hot path alloc-free
	segSize  int    // bytes written to the current segment
	err      error  // sticky: first store failure poisons the log

	fsyncs atomic.Uint64 // barriers issued; telemetry-independent Stats feed
}

func newWAL(store kv.Store, startSeg uint64, segBytes int, tel *telemetry.Shard) *wal {
	w := &wal{
		store:    store,
		tel:      tel,
		segBytes: segBytes,
		pending:  make([]byte, 0, 4096),
		spare:    make([]byte, 0, 4096),
		seg:      startSeg,
		segName:  segKey(startSeg),
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// append encodes one record into the pending buffer and returns its LSN.
// Must be called with the owning Queue's op mutex held, so that record
// order in the log equals the order the operations took effect in the
// inner queue. Allocation-free once the two buffers reach steady size.
func (w *wal) append(kind byte, kvs []pq.KV) uint64 {
	w.mu.Lock()
	w.pending = appendRecord(w.pending, kind, kvs)
	w.appended++
	lsn := w.appended
	w.mu.Unlock()
	if telemetry.Enabled {
		w.tel.Inc(telemetry.DurWALAppend)
	}
	return lsn
}

// commitWait blocks until the record at lsn is durable. The first caller
// to find no leader becomes one: it claims the pending buffer, writes and
// syncs it, then wakes everyone whose records it covered. Callers whose
// records were made durable by someone else's sync count as group joins.
func (w *wal) commitWait(lsn uint64) error {
	ledOnce := false
	w.mu.Lock()
	for w.synced < lsn && w.err == nil {
		if w.leading {
			w.cond.Wait()
			continue
		}
		w.leading = true
		// Yield once with the lock released so more producers can append
		// into the buffer this leader is about to claim: right after a
		// commit wakes its cohort, the first producer back would otherwise
		// claim a buffer holding only its own record and spend a whole
		// fsync on it, degenerating toward fsync-per-op on few cores.
		// Yielding lets every already-runnable producer append first, so
		// the next fsync covers the full cohort.
		w.mu.Unlock()
		runtime.Gosched()
		w.mu.Lock()
		buf := w.pending
		w.pending = w.spare[:0]
		target := w.appended
		w.mu.Unlock()

		err := w.sync(buf)
		ledOnce = true

		w.mu.Lock()
		w.spare = buf[:0]
		w.leading = false
		if err != nil {
			if w.err == nil {
				w.err = err
			}
		} else {
			w.synced = target
			w.segSize += len(buf)
			w.maybeRotateLocked()
		}
		w.cond.Broadcast()
	}
	err := w.err
	w.mu.Unlock()
	if err != nil {
		return err
	}
	if !ledOnce && telemetry.Enabled {
		w.tel.Inc(telemetry.DurGroupJoin)
	}
	return nil
}

// sync writes buf to the current segment and makes it durable. Runs
// without w.mu held; the leading flag guarantees a single writer.
func (w *wal) sync(buf []byte) error {
	if len(buf) > 0 {
		if err := w.store.Append(w.segName, buf); err != nil {
			return err
		}
	}
	chaos.Perturb(chaos.WALFsync)
	if w.crashHook != nil {
		w.crashHook()
	}
	if err := w.store.Sync(); err != nil {
		return err
	}
	w.fsyncs.Add(1)
	if telemetry.Enabled {
		w.tel.Inc(telemetry.DurFsync)
	}
	return nil
}

// maybeRotateLocked starts a fresh segment once the current one is big
// enough. Only legal with no pending bytes (they would land in the wrong
// segment) — callers hold w.mu and have just drained the buffer, so the
// check is cheap.
func (w *wal) maybeRotateLocked() {
	if w.segBytes <= 0 || w.segSize < w.segBytes || len(w.pending) > 0 {
		return
	}
	w.seg++
	w.segName = segKey(w.seg)
	w.segSize = 0
}

// barrier makes everything appended so far durable (graceful-drain path).
func (w *wal) barrier() error {
	w.mu.Lock()
	lsn := w.appended
	w.mu.Unlock()
	if lsn == 0 {
		return nil
	}
	return w.commitWait(lsn)
}

// appendMarker drops a replay-inert snapshot-begin record into the
// pending buffer: one pair carrying (snapshot index, cut segment). It
// does not bump the LSN — no producer waits on a marker — so Stats()
// record counts keep meaning "logged operations". The marker rides the
// next commit's sync; if the process exits first it simply never lands,
// which is fine for a record that carries no replay effect.
func (w *wal) appendMarker(snapIdx, cut uint64) {
	pair := [1]pq.KV{{Key: snapIdx, Value: cut}}
	w.mu.Lock()
	if w.err == nil {
		w.pending = appendRecord(w.pending, recSnapBegin, pair[:])
	}
	w.mu.Unlock()
}

// seal is the snapshotter's cut: it waits out any in-flight leader,
// claims and syncs the pending bytes, and rotates to a fresh segment,
// returning that fresh segment's index — everything below it is frozen.
// Unlike the group-commit path it is called *without* the owning Queue's
// op mutex; that is safe because each op appends its record under the op
// mutex in one appendRecord call, so every record lands wholly on one
// side of the buffer claim: the frozen prefix below the cut is a
// consistent operation prefix, exactly what the concurrent snapshot
// needs (DESIGN.md §8c).
func (w *wal) seal() (uint64, error) {
	w.mu.Lock()
	for w.leading { // wait out an in-flight leader
		w.cond.Wait()
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return 0, err
	}
	w.leading = true
	buf := w.pending
	w.pending = w.spare[:0]
	target := w.appended
	w.mu.Unlock()

	err := w.sync(buf)

	w.mu.Lock()
	w.spare = buf[:0]
	w.leading = false
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		w.cond.Broadcast()
		w.mu.Unlock()
		return 0, err
	}
	w.synced = target
	w.seg++
	w.segName = segKey(w.seg)
	w.segSize = 0
	next := w.seg
	w.cond.Broadcast()
	w.mu.Unlock()
	return next, nil
}
