// Package cpq is a suite of concurrent priority queues with relaxed and
// strict semantics, reproducing the data structures and benchmarks of
// "Benchmarking Concurrent Priority Queues: Performance of k-LSM and Related
// Data Structures" (Gruber, Träff, Wimmer — SPAA 2016).
//
// All queues store (key, value) pairs of uint64 with smaller keys deleted
// first, and support exactly two operations: Insert and DeleteMin. Queues
// are accessed through per-goroutine Handles, which carry the thread-local
// state several of the designs depend on (the k-LSM's distributed component,
// per-thread random number generators):
//
//	q := cpq.NewKLSM(4096)
//	h := q.Handle() // one per goroutine
//	h.Insert(13, 37)
//	key, value, ok := h.DeleteMin()
//
// The batch helpers InsertN and DeleteMinN move several pairs per call,
// taking each structure's native batch-first path where it has one and
// falling back to a scalar loop otherwise (DESIGN.md §4c):
//
//	cpq.InsertN(h, kvs)                  // one synchronization episode
//	got := cpq.DeleteMinN(h, dst, len(dst))
//
// # Implementations
//
//   - NewKLSM: the k-LSM relaxed queue (lock-free, linearizable; DeleteMin
//     returns one of the kP smallest items, P = number of handles).
//   - NewDLSM, NewSLSM: the k-LSM's two components as standalone queues.
//   - NewLinden: the Lindén-Jonsson skiplist queue (strict, lock-free).
//   - NewSprayList: the SprayList (relaxed, lock-free, random-walk deletes).
//   - NewMultiQueue: the MultiQueue (relaxed, c·P locked sequential heaps).
//   - NewGlobalLock: sequential binary heap behind one mutex (baseline).
//   - NewLotan: Shavit-Lotan style skiplist queue (strict at quiescence).
//   - NewHunt: the Hunt et al. fine-grained locked heap.
//   - NewMound: a lock-based Mound (tree of sorted lists).
//   - NewCBPQ: a chunk-based priority queue (FAA-filled chunks, strict).
//
// The registry (NewQueue, Names) maps the paper's benchmark identifiers
// ("klsm128", "linden", "spray", "multiq", "globallock", ...) to factories,
// parameterized by an Options struct (intended thread count, durability).
// Unknown identifiers are reported as *UnknownQueueError.
package cpq

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cpq/internal/cbpq"
	"cpq/internal/core"
	"cpq/internal/durable"
	"cpq/internal/hunt"
	"cpq/internal/linden"
	"cpq/internal/locksl"
	"cpq/internal/lotan"
	"cpq/internal/mound"
	"cpq/internal/multiq"
	"cpq/internal/pq"
	"cpq/internal/seqheap"
	"cpq/internal/spray"
)

// Queue is a concurrent priority queue; see the package documentation.
type Queue = pq.Queue

// Handle is a per-goroutine access handle; see the package documentation.
type Handle = pq.Handle

// Item is a key-value pair.
type Item = pq.Item

// KV is the element type of the batch API (InsertN, DeleteMinN); it is an
// alias of Item.
type KV = pq.KV

// Pool is an elastic handle pool over any registry queue: Acquire/Release
// over one locked free list with a zero-alloc hit path, and capped growth;
// at the cap, Acquire blocks until a Release. See the pq package
// documentation and DESIGN.md's handle-lifecycle section.
type Pool = pq.Pool

// PooledHandle is the Handle implementation Pool.Acquire returns.
type PooledHandle = pq.PooledHandle

// PoolOptions configures NewPool.
type PoolOptions = pq.PoolOptions

// NewPool wraps q in an elastic handle pool. Goroutines call Acquire for a
// handle and Release when done. Release is mandatory, like Unlock: a
// handle never released stays acquired, its buffered items unreachable,
// and Pool.Close reports it. Prefer this over per-goroutine q.Handle()
// whenever goroutine lifetimes are short or unbounded relative to the
// queue's.
func NewPool(q Queue, opts PoolOptions) *Pool { return pq.NewPool(q, opts) }

// NewKLSM returns a k-LSM relaxed priority queue with relaxation parameter
// k. DeleteMin returns one of the kP smallest items, where P is the number
// of handles in use. The paper evaluates k ∈ {128, 256, 4096}.
func NewKLSM(k int) *core.KLSM { return core.NewKLSM(k) }

// NewDLSM returns the k-LSM's thread-local component as a standalone queue:
// embarrassingly parallel, with work stealing when a handle runs empty.
func NewDLSM() *core.DLSM { return core.NewDLSM() }

// NewSLSM returns the k-LSM's shared component as a standalone queue:
// a global LSM whose DeleteMin skips at most k items.
func NewSLSM(k int) *core.SLSM { return core.NewSLSM(k) }

// NewLinden returns a Lindén-Jonsson strict lock-free skiplist queue with
// the default physical-deletion batching threshold.
func NewLinden() *linden.Queue { return linden.New(0) }

// NewLindenBound returns a Lindén-Jonsson queue with an explicit batching
// threshold (the design's main tuning parameter).
func NewLindenBound(boundOffset int) *linden.Queue { return linden.New(boundOffset) }

// NewSprayList returns a SprayList tuned for up to p concurrent threads.
func NewSprayList(p int) *spray.Queue { return spray.New(p) }

// NewMultiQueue returns a MultiQueue with c·p sequential sub-queues
// (c <= 0 selects the paper's c = 4), each two 4-ary heaps: a hot one for
// keys below the cold one's latest pop, and the cold one for the rest.
func NewMultiQueue(c, p int) *multiq.Queue { return multiq.New(c, p) }

// NewMultiQueueEngineered returns the engineered MultiQueue of Williams and
// Sanders ("Engineering MultiQueues", arXiv:2107.01350): the classic c·p
// sub-queue layout extended with stickiness s (a handle reuses its last
// sub-queue for up to s consecutive lock acquisitions before re-sampling)
// and per-handle insertion/deletion buffers of b items (one lock
// acquisition amortized over a batch of b operations). s <= 1 disables
// stickiness, b <= 1 disables buffering; c <= 0 selects the paper's c = 4.
// Registry identifiers look like "multiq-s4-b8" or "multiq-c8-s4-b8".
func NewMultiQueueEngineered(c, p, s, b int) *multiq.Queue {
	return multiq.NewEngineered(c, p, s, b)
}

// NewGlobalLock returns the baseline: a sequential binary heap protected by
// a single global mutex.
func NewGlobalLock() *seqheap.GlobalLock { return seqheap.NewGlobalLock() }

// NewLotan returns a Shavit-Lotan style skiplist queue.
func NewLotan() *lotan.Queue { return lotan.New() }

// NewHunt returns the Hunt et al. fine-grained locked heap.
func NewHunt() *hunt.Queue { return hunt.New(0) }

// NewMound returns a lock-based Mound queue.
func NewMound() *mound.Queue { return mound.New() }

// NewCBPQ returns a chunk-based priority queue (strict).
func NewCBPQ() *cbpq.Queue { return cbpq.New() }

// NewLockedSkiplist returns a skiplist behind one global mutex — the second
// global-lock baseline (appendix D), isolating the sequential-structure
// cost (pointer skiplist vs. array heap) from concurrency effects.
func NewLockedSkiplist() *locksl.Queue { return locksl.New() }

// Options configures queue construction through the registry (NewQueue).
// The zero value is valid: a single-threaded queue with every structure's
// default tuning.
type Options struct {
	// Threads is the intended number of concurrent handles. Structures
	// whose layout depends on the thread count (the SprayList's walk
	// geometry, the MultiQueue's c·P sub-queue array) are sized for it;
	// the rest ignore it. Values < 1 are treated as 1.
	Threads int
	// Durable, when non-nil, wraps the constructed queue in the durable
	// tier (internal/durable): a group-commit write-ahead log plus
	// periodic snapshots persisted under Durable.Dir, recovered on the
	// next construction over the same directory. A malformed Durable
	// configuration yields a *DurableError.
	Durable *DurableOptions
}

// DurableOptions configures the durable tier for NewQueue. The zero value
// is not valid: Dir is required.
type DurableOptions struct {
	// Dir is the directory the WAL segments and snapshots live in. One
	// directory serves one queue; constructing over a non-empty directory
	// replays its contents into the new queue first.
	Dir string
	// SnapshotEvery takes a snapshot (and truncates the WAL) every that
	// many logged operations; zero disables automatic snapshots (one is
	// still taken on Close).
	SnapshotEvery int
	// SegmentBytes rotates the WAL to a fresh segment once the current
	// one exceeds this size; zero selects the 1 MiB default.
	SegmentBytes int
}

// DurableError reports a durable-incompatible NewQueue request — a
// malformed DurableOptions or a backend that could not be opened. Match
// with errors.As; Unwrap exposes the backend cause when there is one.
type DurableError struct {
	Name   string // queue identifier of the request
	Reason string
	Err    error // backend cause, nil for pure validation failures
}

func (e *DurableError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("cpq: durable %q: %s: %v", e.Name, e.Reason, e.Err)
	}
	return fmt.Sprintf("cpq: durable %q: %s", e.Name, e.Reason)
}

func (e *DurableError) Unwrap() error { return e.Err }

func (o Options) threads() int {
	if o.Threads < 1 {
		return 1
	}
	return o.Threads
}

// UnknownQueueError is returned by NewQueue when the identifier
// does not name any registered queue. Known carries the registry's
// identifiers so callers can print an accurate usage hint.
type UnknownQueueError struct {
	Name  string
	Known []string
}

func (e *UnknownQueueError) Error() string {
	return fmt.Sprintf("cpq: unknown queue %q (known: %s)", e.Name, strings.Join(e.Known, ", "))
}

// NewQueue constructs a queue by its benchmark identifier, e.g. "klsm128",
// "linden", "spray", "multiq", "globallock", "lotan", "dlsm", "slsm256",
// "hunt", "mound", "multiq-s4-b8". An unrecognized identifier yields an
// *UnknownQueueError (match with errors.As); a recognized identifier with a
// malformed parameter yields a plain error describing the parameter; a
// malformed Options.Durable yields a *DurableError.
//
// With Options.Durable set, the returned queue is the durable wrapper:
// its Name gains a "dur:" prefix, operations are write-ahead logged with
// group commit, and Close (via cpq.Close) must be called to sync, take
// the final snapshot and release the store.
func NewQueue(name string, opts Options) (Queue, error) {
	q, err := newBase(name, opts)
	if err != nil || opts.Durable == nil {
		return q, err
	}
	d := opts.Durable
	var reason string
	switch {
	case d.Dir == "":
		reason = "Dir is required"
	case d.SnapshotEvery < 0:
		reason = "negative SnapshotEvery"
	case d.SegmentBytes < 0:
		reason = "negative SegmentBytes"
	}
	if reason != "" {
		return nil, &DurableError{Name: name, Reason: reason}
	}
	dq, err := durable.Wrap(q, durable.Options{
		Dir:           d.Dir,
		SnapshotEvery: d.SnapshotEvery,
		SegmentBytes:  d.SegmentBytes,
	})
	if err != nil {
		return nil, &DurableError{Name: name, Reason: "open durable store", Err: err}
	}
	return dq, nil
}

// newBase constructs the in-memory queue a registry identifier names.
func newBase(name string, opts Options) (Queue, error) {
	threads := opts.threads()
	n := strings.ToLower(strings.TrimSpace(name))
	switch {
	case n == "linden":
		return NewLinden(), nil
	case n == "spray", n == "spraylist":
		return NewSprayList(threads), nil
	case n == "multiq", n == "multiqueue":
		return NewMultiQueue(multiq.DefaultC, threads), nil
	case n == "globallock", n == "heap":
		return NewGlobalLock(), nil
	case n == "lotan":
		return NewLotan(), nil
	case n == "dlsm":
		return NewDLSM(), nil
	case n == "hunt":
		return NewHunt(), nil
	case n == "mound":
		return NewMound(), nil
	case n == "cbpq":
		return NewCBPQ(), nil
	case n == "locksl", n == "lockedskiplist":
		return NewLockedSkiplist(), nil
	case strings.HasPrefix(n, "klsm"):
		k, err := strconv.Atoi(n[len("klsm"):])
		if err != nil || k < 1 {
			return nil, fmt.Errorf("cpq: bad k-LSM relaxation in %q", name)
		}
		return NewKLSM(k), nil
	case strings.HasPrefix(n, "slsm"):
		k, err := strconv.Atoi(n[len("slsm"):])
		if err != nil || k < 1 {
			return nil, fmt.Errorf("cpq: bad SLSM relaxation in %q", name)
		}
		return NewSLSM(k), nil
	case strings.HasPrefix(n, "multiq-"):
		c, s, b, err := parseMultiQSpec(n[len("multiq-"):])
		if err != nil {
			return nil, fmt.Errorf("cpq: %v in %q", err, name)
		}
		return NewMultiQueueEngineered(c, threads, s, b), nil
	case strings.HasPrefix(n, "multiq"):
		c, err := strconv.Atoi(n[len("multiq"):])
		if err != nil || c < 1 {
			return nil, fmt.Errorf("cpq: bad MultiQueue factor in %q", name)
		}
		return NewMultiQueue(c, threads), nil
	}
	return nil, &UnknownQueueError{Name: name, Known: Names()}
}

// Flush publishes any operations buffered in h so that every item the
// handle holds privately becomes reachable through other handles; handles
// that do not buffer (and nil) are no-ops. Call it on each worker handle
// when its goroutine stops operating on the queue.
func Flush(h Handle) { pq.Flush(h) }

// PeekMin reports (but does not remove) a current minimum candidate of v,
// which may be a Queue or a Handle — whichever side supports peeking for
// the structure at hand. ok is false for non-peekable (or nil) v, and the
// result is approximate under concurrency.
func PeekMin(v any) (key, value uint64, ok bool) { return pq.PeekMin(v) }

// Close tears down v — a Queue, Pool, or anything else a call site holds
// at exit. Queues that hold resources beyond the heap (the durable tier's
// WAL and store, a Pool's free handles) flush and release them;
// everything else (and nil) is a no-op returning nil. The
// capability-checked form of pq.Closer, exactly as Flush is for Flusher,
// so every call site can uniformly `defer cpq.Close(q)`.
func Close(v any) error { return pq.Close(v) }

// InsertN inserts every element of kvs through h in one call, using the
// handle's native batch path where the structure has one (one lock
// acquisition, one CAS publish, one predecessor search shared across the
// batch — see DESIGN.md §4c) and a scalar Insert loop otherwise. kvs is
// caller-owned; a native path may reorder it in place (typically sorting
// by key) but never retains it.
func InsertN(h Handle, kvs []KV) { pq.InsertN(h, kvs) }

// DeleteMinN removes up to n items through h into a prefix of dst and
// returns how many were removed (n is clamped to len(dst)). Each removed
// item individually satisfies the queue's relaxation bound — a batch is n
// delete-mins sharing their synchronization, not a weaker contract. A
// return short of n means the queue appeared empty to the handle
// mid-batch. Handles without a native path fall back to a DeleteMin loop.
func DeleteMinN(h Handle, dst []KV, n int) int { return pq.DeleteMinN(h, dst, n) }

// parseMultiQSpec parses the dash-separated parameter list of an engineered
// MultiQueue identifier, e.g. "s4-b8" or "c8-s4-b8" (from "multiq-s4-b8",
// "multiq-c8-s4-b8"). Omitted parameters default to c = the paper's 4,
// s = 1, b = 1 (extension off); each parameter may appear at most once.
func parseMultiQSpec(spec string) (c, s, b int, err error) {
	c, s, b = multiq.DefaultC, 1, 1
	seen := [256]bool{}
	for _, seg := range strings.Split(spec, "-") {
		if len(seg) < 2 {
			return 0, 0, 0, fmt.Errorf("bad MultiQueue parameter %q", seg)
		}
		v, convErr := strconv.Atoi(seg[1:])
		if convErr != nil || v < 1 {
			return 0, 0, 0, fmt.Errorf("bad MultiQueue parameter %q", seg)
		}
		if seen[seg[0]] {
			return 0, 0, 0, fmt.Errorf("duplicate MultiQueue parameter %q", seg)
		}
		seen[seg[0]] = true
		switch seg[0] {
		case 'c':
			c = v
		case 's':
			s = v
		case 'b':
			b = v
		default:
			return 0, 0, 0, fmt.Errorf("bad MultiQueue parameter %q (want c<n>, s<n> or b<n>)", seg)
		}
	}
	return c, s, b, nil
}

// Names lists the benchmark identifiers of the paper's seven compared
// variants plus this suite's extensions, in the paper's display order.
func Names() []string {
	return []string{
		"klsm128", "klsm256", "klsm4096", // the paper's k-LSM variants
		"linden", "spray", "multiq", "globallock", // the paper's comparisons
		"lotan", "hunt", "mound", "cbpq", "locksl", "dlsm", "slsm256", // extensions (appendix D)
		"multiq-s4-b8", // engineered MultiQueue (Williams-Sanders stickiness + buffers)
	}
}

// PaperNames lists only the seven variants shown in the paper's figures.
func PaperNames() []string {
	return []string{"klsm128", "klsm256", "klsm4096", "linden", "spray", "multiq", "globallock"}
}

// SortNames orders queue identifiers in canonical display order (paper
// variants first, then extensions, then unknown names alphabetically).
func SortNames(names []string) {
	rank := map[string]int{}
	for i, n := range Names() {
		rank[n] = i
	}
	sort.SliceStable(names, func(i, j int) bool {
		ri, iok := rank[names[i]]
		rj, jok := rank[names[j]]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		case jok:
			return false
		default:
			return names[i] < names[j]
		}
	})
}
