// Package hunt implements the concurrent priority queue heap of Hunt,
// Michael, Parthasarathy and Scott (Information Processing Letters 1996),
// listed in the paper's Appendix D as the classic fine-grained-locking
// design: "it attempts to minimize lock contention between threads by
// a) adding per-node locks, b) spreading subsequent insertions through a
// bit-reversal technique, and c) letting insertions traverse bottom-up in
// order to minimize conflicts with top-down deletions."
//
// The heap is a complete binary tree stored level by level (level arrays
// are allocated on demand under the size lock, so node addresses stay
// stable; the allocated bound is published through an atomic so traversals
// never need the size lock). Each node carries its own mutex and a tag:
// EMPTY (no item), AVAILABLE (item fully inserted), or the id of the handle
// currently bubbling the item up. Insertions place the new item at the
// bit-reversed next slot of the last level and bubble it bottom-up with
// hand-over-hand locking, chasing the item if a concurrent deletion moved
// it. Deletions remove the most recently filled slot, substitute it for the
// root and sift top-down. Locks are always acquired parent-before-child,
// and the size lock is never requested while holding a node lock, so the
// two directions cannot deadlock.
//
// # Deviation from the original
//
// The original deletion detaches the bottom item under the size lock and
// only then locks the root. Until that item reaches the root no other
// deletion can see it, so a deletion in that window returns a larger key
// when the detached item is the newest one, even if its insert has already
// returned. Here a deletion locks the root under the size lock, before the
// bottom slot (lock order: size lock, root, bottom slot), and holds it
// until the detached item sits at the root. That makes the queue strict
// under concurrency, not only at quiescence, at the cost of holding the
// root across the detach.
//
// Registry identifier: "hunt"; strict (cmd/pqverify checks that no
// deletion has a definite rank above 0). It appears in the extension-queue
// grid of EXPERIMENTS.md, where it shows the design's known profile: fast
// at one thread, degrading fastest with contention (the global size lock
// and root serialize both operation kinds).
package hunt

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"cpq/internal/pq"
)

// Tag values; positive values are handle ids.
const (
	tagEmpty     int64 = 0
	tagAvailable int64 = -1
)

// maxLevels bounds the tree depth; 2^34 items is far beyond any benchmark.
const maxLevels = 34

type node struct {
	mu  sync.Mutex
	tag int64
	it  pq.Item
}

// Queue is a Hunt et al. heap.
type Queue struct {
	heapLock sync.Mutex
	count    int // number of items; slot indices are 1-based

	// levels[L] holds the 2^L nodes of depth L. A level array is written
	// once (under heapLock) before maxLevel publishes it; readers that
	// load maxLevel >= L may access levels[L] without further locking.
	levels   [maxLevels][]node
	maxLevel atomic.Int64

	nextID atomic.Int64
}

var _ pq.Queue = (*Queue)(nil)

// New returns an empty queue. capacityHint pre-allocates levels for about
// that many items (0 chooses a small default); the heap still grows beyond
// the hint on demand.
func New(capacityHint int) *Queue {
	q := &Queue{}
	levels := 4
	for levels < maxLevels-1 && (1<<levels) < capacityHint {
		levels++
	}
	for i := 0; i < levels; i++ {
		q.levels[i] = make([]node, 1<<i)
	}
	q.maxLevel.Store(int64(levels - 1))
	return q
}

// nodeAt returns the node with 1-based heap index i; the caller must have
// established i's level is allocated (i's level <= maxLevel).
func (q *Queue) nodeAt(i int) *node {
	level := bits.Len(uint(i)) - 1
	return &q.levels[level][i-(1<<level)]
}

// ensureLocked grows the level table so index i is addressable.
// Caller holds heapLock.
func (q *Queue) ensureLocked(i int) {
	level := int64(bits.Len(uint(i)) - 1)
	for l := q.maxLevel.Load() + 1; l <= level; l++ {
		q.levels[l] = make([]node, 1<<l)
		q.maxLevel.Store(l)
	}
}

// slotFor maps the n-th item (1-based) to its bit-reversed heap slot:
// the item lands in the last level at the bit-reversed offset, spreading
// consecutive insertions across different subtrees.
func slotFor(n int) int {
	if n <= 1 {
		return n
	}
	level := bits.Len(uint(n)) - 1
	offset := uint(n) - 1<<level
	return 1<<level + int(bits.Reverse(offset)>>(bits.UintSize-level))
}

// Name implements pq.Queue.
func (q *Queue) Name() string { return "hunt" }

// Handle implements pq.Queue.
func (q *Queue) Handle() pq.Handle {
	return &Handle{q: q, id: q.nextID.Add(1)}
}

// Handle is a per-goroutine handle; its id tags items while they bubble up.
type Handle struct {
	q  *Queue
	id int64
}

var _ pq.Handle = (*Handle)(nil)

// Insert implements pq.Handle.
func (h *Handle) Insert(key, value uint64) {
	q := h.q
	q.heapLock.Lock()
	q.count++
	i := slotFor(q.count)
	q.ensureLocked(i)
	n := q.nodeAt(i)
	n.mu.Lock()
	q.heapLock.Unlock()
	n.it = pq.Item{Key: key, Value: value}
	n.tag = h.id
	n.mu.Unlock()

	// Bubble up, chasing the item if deletions move it.
	for i > 1 {
		parent := i / 2
		pn, cn := q.nodeAt(parent), q.nodeAt(i)
		pn.mu.Lock()
		cn.mu.Lock()
		switch {
		case pn.tag == tagAvailable && cn.tag == h.id:
			if cn.it.Key < pn.it.Key {
				pn.it, cn.it = cn.it, pn.it
				cn.tag = tagAvailable
				pn.tag = h.id
				i = parent
			} else {
				cn.tag = tagAvailable
				i = 0
			}
		case pn.tag == tagEmpty:
			// The parent was consumed as a deletion's substitute; our item
			// has been moved to (or past) the root by that deletion.
			i = 0
		case cn.tag != h.id:
			// A deletion swapped our item upward; chase it.
			i = parent
		default:
			// Parent still mid-insertion by another handle: retry until
			// that insertion's bubble marks it AVAILABLE.
		}
		cn.mu.Unlock()
		pn.mu.Unlock()
	}
	if i == 1 {
		n := q.nodeAt(1)
		n.mu.Lock()
		if n.tag == h.id {
			n.tag = tagAvailable
		}
		n.mu.Unlock()
	}
}

// DeleteMin implements pq.Handle.
func (h *Handle) DeleteMin() (key, value uint64, ok bool) {
	q := h.q
	q.heapLock.Lock()
	if q.count == 0 {
		q.heapLock.Unlock()
		return 0, 0, false
	}
	bottom := slotFor(q.count)
	q.count--
	// Lock the root before detaching the bottom item and hold it until that
	// item sits at the root: a deletion that ran in between would not see
	// the detached item, and could return a larger key than it.
	root := q.nodeAt(1)
	root.mu.Lock()
	if bottom == 1 {
		// The heap held a single item; it is the minimum.
		q.heapLock.Unlock()
		min := root.it
		root.tag = tagEmpty
		root.mu.Unlock()
		return min.Key, min.Value, true
	}
	bn := q.nodeAt(bottom)
	bn.mu.Lock()
	q.heapLock.Unlock()
	moved := bn.it
	bn.tag = tagEmpty
	bn.mu.Unlock()

	min := root.it
	root.it = moved
	root.tag = tagAvailable

	// Sift the substitute down with hand-over-hand locking. The current
	// node's lock is held entering each iteration.
	i := 1
	maxIdx := (1 << (q.maxLevel.Load() + 1)) - 1
	for 2*i <= maxIdx {
		child := q.lockSmallerChild(i, maxIdx)
		if child == 0 {
			break
		}
		cn, in := q.nodeAt(child), q.nodeAt(i)
		if cn.it.Key < in.it.Key {
			in.it, cn.it = cn.it, in.it
			in.tag, cn.tag = cn.tag, in.tag
			in.mu.Unlock()
			i = child
		} else {
			cn.mu.Unlock()
			break
		}
	}
	q.nodeAt(i).mu.Unlock()
	return min.Key, min.Value, true
}

// lockSmallerChild locks the smaller non-empty child of i and returns its
// index, or 0 if both children are empty (nothing stays locked then).
// Caller holds node i's lock; maxIdx bounds allocated indices.
func (q *Queue) lockSmallerChild(i, maxIdx int) int {
	left := 2 * i
	ln := q.nodeAt(left)
	ln.mu.Lock()
	right := left + 1
	var rn *node
	if right <= maxIdx {
		rn = q.nodeAt(right)
		rn.mu.Lock()
	}
	lEmpty := ln.tag == tagEmpty
	rEmpty := rn == nil || rn.tag == tagEmpty
	switch {
	case lEmpty && rEmpty:
		if rn != nil {
			rn.mu.Unlock()
		}
		ln.mu.Unlock()
		return 0
	case rEmpty:
		if rn != nil {
			rn.mu.Unlock()
		}
		return left
	case lEmpty:
		ln.mu.Unlock()
		return right
	case ln.it.Key <= rn.it.Key:
		rn.mu.Unlock()
		return left
	default:
		ln.mu.Unlock()
		return right
	}
}

// Len reports the current item count.
func (q *Queue) Len() int {
	q.heapLock.Lock()
	n := q.count
	q.heapLock.Unlock()
	return n
}
