package durable

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cpq/internal/durable/kv"
	"cpq/internal/pq"
)

// Options configures a durable wrapper.
type Options struct {
	// Store is the backend to persist through. If nil, Dir must name a
	// directory, and the disk segment store is opened there (and owned:
	// Close closes it).
	Store kv.Store
	// Dir is where to open a kv store when Store is nil.
	Dir string
	// SnapshotEvery triggers a concurrent incremental snapshot (seal,
	// fold frozen segments, chunked part write, manifest commit, WAL
	// truncate — producers keep running throughout) every that many
	// logged operations. Zero disables automatic snapshots; Snapshot can
	// still be called explicitly and Close takes a final one.
	SnapshotEvery int
	// SegmentBytes rotates the WAL to a fresh segment once the current
	// one exceeds this size. Default 1 MiB.
	SegmentBytes int
}

// Stats counts the log's work.
type Stats struct {
	Records   uint64 // WAL records appended
	Fsyncs    uint64 // durability barriers issued
	Snapshots uint64 // snapshots taken
}

// Queue wraps an inner pq.Queue with WAL + snapshot durability. Every
// mutating operation applies to the inner queue and appends its logged
// effect to the WAL under one op mutex — so WAL order is operation order,
// the invariant recovery replay is built on — then waits for durability
// outside that mutex, where group commit amortizes the fsync across every
// producer parked on the same ticket.
//
// The wrapper serializes the inner queue. That is deliberate: against a
// real disk the fsync dominates an in-memory queue op by orders of
// magnitude, so the concurrency that matters is overlapping producers'
// *commit waits*, which the op mutex does not cover.
//
// Operations cannot return errors (pq.Handle's contract), so a store
// failure poisons the log sticky and surfaces from a deferring handle's
// Commit, Err, Sync and Close. After Close, operations are silent no-ops.
type Queue struct {
	inner     pq.Queue
	name      string
	store     kv.Store
	ownStore  bool
	w         *wal
	snapEvery int

	mu        sync.Mutex // the op mutex: inner op + WAL append, never the fsync
	h         pq.Handle  // the only handle the inner queue ever sees
	one       [1]pq.KV   // scratch for scalar ops; reused under mu
	opsSince  int
	snapshots atomic.Uint64
	closed    bool
	closeErr  error

	// Snapshot state. snapMu serializes snapshotters (the background
	// goroutine, explicit Snapshot calls, Close's final pass); everything
	// below it is touched only with snapMu held. Producers never take
	// snapMu — a snapshot's only contact with the hot path is the WAL
	// mutex for the instants of the seal.
	snapMu     sync.Mutex
	snapWG     sync.WaitGroup  // in-flight background snapshot
	snapActive atomic.Bool     // a background snapshot is queued/running
	nextSnap   uint64          // next snapshot index to claim
	base       liveSet         // live multiset as of baseSeg
	baseSeg    uint64          // first WAL segment not folded into base
	snapHook   func(SnapPhase) // test hook at snapshot phase boundaries

	closeMu sync.Mutex // serializes Close end-to-end (idempotent result)
}

// Wrap opens (or recovers) a durable queue over inner. If the store
// already holds state — a snapshot and/or WAL segments from a previous
// process — it is replayed into inner before the queue accepts
// operations, and logging continues in a fresh WAL segment (recovered
// segments are never appended to). The recovered set is also the
// snapshotter's base, so the first snapshot folds only the segments
// this process writes.
func Wrap(inner pq.Queue, opts Options) (*Queue, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 1 << 20
	}
	store := opts.Store
	own := false
	if store == nil {
		if opts.Dir == "" {
			return nil, fmt.Errorf("durable: Options needs a Store or a Dir")
		}
		var err error
		store, err = kv.OpenMmap(opts.Dir, opts.SegmentBytes)
		if err != nil {
			return nil, fmt.Errorf("durable: open store: %w", err)
		}
		own = true
	}

	st, err := replayStore(store)
	if err != nil {
		if own {
			store.Close()
		}
		return nil, fmt.Errorf("durable: recover: %w", err)
	}

	q := &Queue{
		inner:     inner,
		name:      "dur:" + inner.Name(),
		store:     store,
		ownStore:  own,
		w:         newWAL(store, st.nextSeg, opts.SegmentBytes),
		snapEvery: opts.SnapshotEvery,
		h:         inner.Handle(),
		nextSnap:  st.nextSnap,
		base:      liveSet{items: st.items},
		baseSeg:   st.nextSeg,
	}
	if len(st.items) > 0 {
		// InsertN may reorder its slice, and st.items is the snapshot
		// base, so the rebuild goes through one reused copy: InsertN
		// never retains the slice it is given.
		chunk := make([]pq.KV, min(len(st.items), 1<<12))
		for off := 0; off < len(st.items); off += len(chunk) {
			pq.InsertN(q.h, chunk[:copy(chunk, st.items[off:])])
		}
		pq.Flush(q.h)
	}
	return q, nil
}

// Name implements pq.Queue; the "dur:" prefix keeps a durable queue
// distinct from its inner queue in benchmark tables.
func (q *Queue) Name() string { return q.name }

// Handle implements pq.Queue. Durable handles are forwarders — all per-op
// state lives in the Queue, under its op mutex — so any number of
// goroutines, each with its own handle, get the same durability
// semantics.
func (q *Queue) Handle() pq.Handle { return &handle{q: q} }

// Err reports the sticky store failure, if any.
func (q *Queue) Err() error {
	q.w.mu.Lock()
	defer q.w.mu.Unlock()
	return q.w.err
}

// Stats reports the log's work so far.
func (q *Queue) Stats() Stats {
	q.w.mu.Lock()
	recs := q.w.appended
	q.w.mu.Unlock()
	return Stats{
		Records:   recs,
		Fsyncs:    q.w.fsyncs.Load(),
		Snapshots: q.snapshots.Load(),
	}
}

// insertN applies and logs an insert batch; returns the LSN to wait on.
func (q *Queue) insertN(kvs []pq.KV) (uint64, bool) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return 0, false
	}
	pq.InsertN(q.h, kvs) // may reorder kvs; the log wants the multiset, so that's fine
	lsn := q.logLocked(recInsert, kvs)
	q.mu.Unlock()
	return lsn, true
}

// deleteMinN pops up to n items and logs exactly what came out; relaxed
// inner queues pop nondeterministically, so replay re-applies the logged
// effect rather than re-running the op. A pop that found nothing logs
// nothing and returns got = 0.
func (q *Queue) deleteMinN(dst []pq.KV, n int) (got int, lsn uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, 0
	}
	if got = pq.DeleteMinN(q.h, dst, n); got == 0 {
		return 0, 0 // nothing changed, nothing to make durable
	}
	return got, q.logLocked(recDelete, dst[:got])
}

// logLocked appends the record of an op just applied to the inner queue
// and returns its LSN. Called with q.mu held, so WAL order is op order.
func (q *Queue) logLocked(kind byte, kvs []pq.KV) uint64 {
	lsn := q.w.append(kind, kvs)
	q.maybeSnapshotLocked()
	return lsn
}

// maybeSnapshotLocked triggers the periodic snapshot. Called with q.mu
// held, right after an op's record was appended. The snapshot itself
// runs on a background goroutine — the producer that crossed the
// threshold only flips a flag and spawns; it never waits for the
// snapshot, which is the whole point of the concurrent protocol. If a
// snapshot is still in flight when the next threshold is crossed, the
// trigger is skipped (the counter restarts, so pressure just shortens
// the gap to the next attempt).
func (q *Queue) maybeSnapshotLocked() {
	q.opsSince++
	if q.snapEvery <= 0 || q.opsSince < q.snapEvery {
		return
	}
	q.opsSince = 0
	if !q.snapActive.CompareAndSwap(false, true) {
		return
	}
	q.snapWG.Add(1) // under q.mu: Close observes the Add before closed stops new triggers
	go func() {
		defer q.snapWG.Done()
		defer q.snapActive.Store(false)
		q.snapMu.Lock()
		defer q.snapMu.Unlock()
		q.takeSnapshot()
	}()
}

// Snapshot forces a snapshot now and waits for it (tests; pqd's graceful
// drain). Unlike the background trigger it reports the sticky error.
func (q *Queue) Snapshot() error {
	q.snapMu.Lock()
	defer q.snapMu.Unlock()
	q.mu.Lock()
	closed := q.closed
	q.mu.Unlock()
	if closed {
		return q.closeErr
	}
	q.takeSnapshot()
	return q.Err()
}

// Sync makes every operation logged so far durable (graceful drain).
func (q *Queue) Sync() error {
	q.mu.Lock()
	if q.closed {
		err := q.closeErr
		q.mu.Unlock()
		return err
	}
	q.mu.Unlock()
	return q.w.barrier()
}

// Close implements pq.Closer: stops new operations, drains any in-flight
// background snapshot, takes a final synchronous snapshot so the next
// open recovers from a compact store, and releases the backend if this
// wrapper opened it. Idempotent and nil-safe.
func (q *Queue) Close() error {
	if q == nil {
		return nil
	}
	q.closeMu.Lock()
	defer q.closeMu.Unlock()
	q.mu.Lock()
	if q.closed {
		err := q.closeErr
		q.mu.Unlock()
		return err
	}
	q.closed = true
	q.mu.Unlock()
	// No new ops (closed), so no new triggers; wait out the in-flight
	// background snapshot, then take the final one on a quiesced log.
	q.snapWG.Wait()
	q.snapMu.Lock()
	q.takeSnapshot()
	q.snapMu.Unlock()
	err := q.Err()
	if q.ownStore {
		if cerr := q.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	q.mu.Lock()
	q.closeErr = err
	q.mu.Unlock()
	return err
}

// handle forwards to the Queue. Implements the full capability set so
// cpq.Flush/PeekMin/InsertN/DeleteMinN all behave, plus pq.Committer.
// All per-op state lives in the Queue, under its op mutex; a handle owns
// only its commit deferral, which is why, like any pq.Handle, it must
// not be shared between goroutines.
type handle struct {
	q        *Queue
	deferred bool   // DeferCommit ran and no Flush since: Commit owns the wait
	lsn      uint64 // newest record logged under deferral and not yet committed
}

// settle finishes a logged op: it waits until the record at lsn is
// durable or, after DeferCommit, leaves that wait to the next Commit.
func (h *handle) settle(lsn uint64) {
	if h.deferred {
		h.lsn = lsn
	} else {
		h.q.w.commitWait(lsn)
	}
}

// Insert implements pq.Handle.
func (h *handle) Insert(key, value uint64) {
	q := h.q
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.one[0] = pq.KV{Key: key, Value: value}
	q.h.Insert(key, value)
	lsn := q.logLocked(recInsert, q.one[:])
	q.mu.Unlock()
	h.settle(lsn)
}

// DeleteMin implements pq.Handle. The popped pair is logged before the
// caller sees it: by the time DeleteMin returns (or, after DeferCommit,
// by the time the next Commit returns nil), the removal is durable — a
// restart cannot resurrect an acknowledged item.
func (h *handle) DeleteMin() (key, value uint64, ok bool) {
	q := h.q
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return 0, 0, false
	}
	k, v, ok := q.h.DeleteMin()
	if !ok {
		q.mu.Unlock()
		return 0, 0, false
	}
	q.one[0] = pq.KV{Key: k, Value: v}
	lsn := q.logLocked(recDelete, q.one[:])
	q.mu.Unlock()
	h.settle(lsn)
	return k, v, true
}

// InsertN implements pq.BatchInserter: one WAL record, one commit ticket
// for the whole batch.
func (h *handle) InsertN(kvs []pq.KV) {
	for off := 0; off < len(kvs); off += maxBatch {
		lsn, ok := h.q.insertN(kvs[off:min(off+maxBatch, len(kvs))])
		if !ok {
			return
		}
		h.settle(lsn)
	}
}

// DeleteMinN implements pq.BatchDeleter.
func (h *handle) DeleteMinN(dst []pq.KV, n int) int {
	n = min(n, len(dst), maxBatch)
	if n <= 0 {
		return 0
	}
	got, lsn := h.q.deleteMinN(dst, n)
	if got > 0 {
		h.settle(lsn)
	}
	return got
}

// DeferCommit implements pq.Committer: until the next Flush, mutating
// calls return once their record is logged, and Commit waits for them.
func (h *handle) DeferCommit() { h.deferred = true }

// Commit implements pq.Committer. It waits on the newest record the
// handle logged since its last successful Commit, so every record before
// it, from this handle or any other, rides the same group commit. A
// non-nil error is the log's sticky failure: those records will never be
// durable.
func (h *handle) Commit() error {
	if h.lsn == 0 {
		return nil
	}
	if err := h.q.w.commitWait(h.lsn); err != nil {
		return err
	}
	h.lsn = 0
	return nil
}

// Flush implements pq.Flusher: publish inner buffers and make the log
// durable — the handle-level graceful-drain hook harnesses already call.
// It also ends a DeferCommit, so a handle a pool releases (and flushes)
// goes back with the default contract.
func (h *handle) Flush() {
	q := h.q
	h.deferred, h.lsn = false, 0
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	pq.Flush(q.h)
	q.mu.Unlock()
	q.w.barrier()
}

// PeekMin implements pq.Peeker when the inner structure can peek.
func (h *handle) PeekMin() (key, value uint64, ok bool) {
	q := h.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, 0, false
	}
	if k, v, ok := pq.PeekMin(q.h); ok {
		return k, v, true
	}
	return pq.PeekMin(q.inner)
}
