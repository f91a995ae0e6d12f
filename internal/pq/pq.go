// Package pq defines the common interface implemented by every concurrent
// priority queue in the suite. The benchmark harness, quality harness and
// the public cpq package all program against these two interfaces.
//
// All queues in the paper support exactly two operations on key-value
// pairs: insert and delete_min. Neither decrease_key nor meld is supported
// by any of the compared structures (Appendix A), and the suite follows
// that contract.
package pq

import "slices"

// Item is a key-value pair stored in a priority queue. Smaller keys have
// higher priority. The paper benchmarks integer keys; values are opaque
// payloads carried alongside.
type Item struct {
	Key   uint64
	Value uint64
}

// KV is the element type of the batch API (InsertN/DeleteMinN). It is an
// alias of Item: the batch calls move the same pairs, just several per
// synchronization episode.
type KV = Item

// Handle is a per-goroutine access handle to a queue. Several of the
// structures keep thread-local state (the k-LSM's distributed component,
// per-thread random number generators for MultiQueue and SprayList), which
// lives in the Handle. A Handle must not be shared between goroutines;
// obtaining any number of Handles from one Queue is cheap and safe.
type Handle interface {
	// Insert adds a key-value pair to the queue.
	Insert(key, value uint64)
	// DeleteMin removes and returns an item with a smallest key — exactly
	// the smallest for strict queues, one of the kP (or similar) smallest
	// for relaxed queues. ok is false if the queue appeared empty.
	DeleteMin() (key, value uint64, ok bool)
}

// Queue is a concurrent priority queue instance.
type Queue interface {
	// Name returns the benchmark identifier of the implementation,
	// e.g. "klsm4096", "linden", "multiq".
	Name() string
	// Handle returns a new per-goroutine handle.
	Handle() Handle
}

// Peeker is implemented by queues whose handles can report (but not remove)
// a current minimum candidate; used by examples and tests.
type Peeker interface {
	PeekMin() (key, value uint64, ok bool)
}

// Flush publishes any operations buffered in h, so that every item the
// handle holds privately becomes reachable through other handles. It is
// the capability-checked form of Flusher: a handle that does not buffer
// (or a nil Handle) is a no-op. Harnesses call it on every worker handle
// when a measured phase ends.
func Flush(h Handle) {
	if f, ok := h.(Flusher); ok {
		f.Flush()
	}
}

// PeekMin reports (but does not remove) a current minimum candidate of v,
// which may be a Queue or a Handle — whichever side implements Peeker for
// the structure at hand. Nil-safe: a non-implementing or nil v reports
// not-ok. Like Peeker itself, the result is approximate under concurrency.
func PeekMin(v any) (key, value uint64, ok bool) {
	if p, isPeeker := v.(Peeker); isPeeker {
		return p.PeekMin()
	}
	return 0, 0, false
}

// BatchInserter is implemented by handles with a native batch-insert path
// that amortizes synchronization over the whole batch (one lock
// acquisition, one CAS publish, one predecessor search reused across
// sorted keys — see DESIGN.md §4c). The kvs slice is caller-owned: the
// implementation may reorder it in place (typically sorting by key) but
// must not retain it after the call returns.
type BatchInserter interface {
	InsertN(kvs []KV)
}

// BatchDeleter is implemented by handles with a native batch-delete path.
// DeleteMinN removes up to n smallest-key items (n clamped to len(dst)),
// stores them into a prefix of dst, and returns how many were removed.
// Each removed item individually satisfies the queue's relaxation bound —
// a batch is n delete_mins that share their synchronization, not a weaker
// contract. dst is caller-owned and must not be retained.
type BatchDeleter interface {
	DeleteMinN(dst []KV, n int) int
}

// InsertN inserts every element of kvs through h, using the handle's
// native batch path when it implements BatchInserter and a scalar
// Insert loop otherwise. It is the capability-checked form of
// BatchInserter, exactly as Flush is for Flusher. kvs may be reordered in
// place by a native path; it is never retained.
func InsertN(h Handle, kvs []KV) {
	if b, ok := h.(BatchInserter); ok {
		b.InsertN(kvs)
		return
	}
	for _, kv := range kvs {
		h.Insert(kv.Key, kv.Value)
	}
}

// DeleteMinN removes up to n items through h into a prefix of dst and
// returns how many were removed, using the handle's native batch path
// when it implements BatchDeleter and a scalar DeleteMin loop otherwise.
// n is clamped to len(dst). A return short of n means the queue appeared
// empty to the handle mid-batch.
func DeleteMinN(h Handle, dst []KV, n int) int {
	if n > len(dst) {
		n = len(dst)
	}
	if b, ok := h.(BatchDeleter); ok {
		return b.DeleteMinN(dst, n)
	}
	got := 0
	for got < n {
		k, v, ok := h.DeleteMin()
		if !ok {
			break
		}
		dst[got] = KV{Key: k, Value: v}
		got++
	}
	return got
}

// SortKVs sorts a batch in place, ascending by key (stable order of values
// is not guaranteed for equal keys). Native InsertN paths that splice
// sorted runs call it on the caller-owned slice, which the BatchInserter
// contract permits.
func SortKVs(kvs []KV) {
	slices.SortFunc(kvs, func(a, b KV) int {
		switch {
		case a.Key < b.Key:
			return -1
		case a.Key > b.Key:
			return 1
		default:
			return 0
		}
	})
}

// Closer is implemented by queues that hold resources beyond the heap —
// the durable tier's WAL descriptors, the handle pool's free lists and
// finalizers. Close flushes whatever teardown requires (pending WAL
// records reach the store; pooled handles are drained) and releases the
// resources; the queue must not be used afterwards. Close is idempotent.
type Closer interface {
	Close() error
}

// Close tears down v, which may be a Queue or anything else a call site
// holds. It is the capability-checked form of Closer, exactly as Flush is
// for Flusher: a non-implementing or nil v is a no-op returning nil, so
// every call site can `defer pq.Close(q)` without caring which of the
// substrates it got.
func Close(v any) error {
	if c, ok := v.(Closer); ok {
		return c.Close()
	}
	return nil
}

// Committer is implemented by handles whose operations must be durable
// before they are acknowledged: the durable tier's write-ahead-logged
// handles. By default each mutating call returns only once its own
// record is durable. After DeferCommit, mutating calls return as soon as
// the operation is applied and logged, and one Commit waits until every
// operation the handle logged before it is durable, so a caller that
// answers many operations at once pays one durability wait for all of
// them. The deferral lasts until the handle's next Flush, which a pool
// Release performs, so a released handle goes back with the default
// contract. A Commit error means the logged operations may never become
// durable, and the caller must not acknowledge them.
type Committer interface {
	DeferCommit()
	Commit() error
}

// DeferCommit switches h to deferred commits when it implements
// Committer; on any other handle it is a no-op, because such a handle's
// operations are complete when its calls return.
func DeferCommit(h Handle) {
	if c, ok := h.(Committer); ok {
		c.DeferCommit()
	}
}

// Commit waits until every operation h has logged is durable. It is the
// capability-checked form of Committer, exactly as Flush is for Flusher:
// a handle that does not implement it has nothing to wait for, and Commit
// returns nil.
func Commit(h Handle) error {
	if c, ok := h.(Committer); ok {
		return c.Commit()
	}
	return nil
}

// Flusher is implemented by handles that buffer operations locally (the
// engineered MultiQueue's insertion/deletion buffers, the k-LSM's
// shared-run buffer of items batch-taken from the SLSM pivot range). Flush
// publishes any buffered insertions to the shared structure and returns
// unserved deletion-buffer items to it, so that every item the handle holds
// becomes reachable through other handles. The benchmark harnesses call
// Flush on each worker handle when its measured phase ends; a handle with
// nothing buffered must treat Flush as a no-op.
type Flusher interface {
	Flush()
}
