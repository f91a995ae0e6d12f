// Package mound implements a lock-based Mound priority queue after Liu and
// Spear (ICPP 2012), listed in the paper's Appendix D: "a recent concurrent
// priority queue design based on a tree of sorted lists". The suite includes
// the lock-based variant; the lock-free variant in the original relies on
// DCAS, "which is not available natively on most current processors" (nor in
// Go's sync/atomic).
//
// A mound is a complete binary tree whose nodes hold sorted lists, with the
// invariant head(parent) <= head(child); the global minimum is the head of
// the root list. Because heads are non-decreasing along any root-to-leaf
// path, insertion can binary-search a randomly chosen path for the
// shallowest node whose head is >= the new key and push the key onto that
// node's list — an O(log log N) expected probe. delete_min pops the root
// head and restores the invariant by "moundifying": swapping whole lists
// toward the root, hand-over-hand, parent locked before child.
//
// Registry identifier: "mound"; strict at quiescence (cmd/pqverify checks
// that no deletion has a definite rank above 0). The randomized insertion
// probe needs a per-goroutine RNG, which lives on the Handle — one more
// reason handles must not be shared between goroutines.
package mound

import (
	"math"
	"sync"
	"sync/atomic"

	"cpq/internal/pq"
	"cpq/internal/rng"
)

// emptyHead is the cached head key of an empty node (+infinity).
const emptyHead = math.MaxUint64

// maxDepth bounds the tree depth (2^28 leaves is far beyond benchmark size).
const maxDepth = 28

// growRetries is the number of random leaf probes before growing the tree.
const growRetries = 8

type node struct {
	mu sync.Mutex
	// list is sorted descending by key, so the head (minimum) is the last
	// element and push/pop at the head are O(1) tail operations.
	list []pq.Item
	// head caches the list's minimum key (emptyHead when empty) for
	// lock-free binary probing; updated under mu.
	head atomic.Uint64
}

func (n *node) updateHead() {
	if len(n.list) == 0 {
		n.head.Store(emptyHead)
		return
	}
	n.head.Store(n.list[len(n.list)-1].Key)
}

// Queue is a lock-based Mound.
type Queue struct {
	growMu sync.Mutex
	levels [maxDepth][]node
	// depth is the deepest allocated level; level arrays are published
	// before depth advances, so readers of depth may touch levels freely.
	depth atomic.Int64
	seed  atomic.Uint64
}

var _ pq.Queue = (*Queue)(nil)

// New returns an empty mound with a few preallocated levels.
func New() *Queue {
	q := &Queue{}
	for l := 0; l <= 4; l++ {
		q.levels[l] = newLevel(l)
	}
	q.depth.Store(4)
	return q
}

func newLevel(l int) []node {
	lv := make([]node, 1<<l)
	for i := range lv {
		lv[i].head.Store(emptyHead)
	}
	return lv
}

// nodeAt returns the node with 1-based tree index i.
func (q *Queue) nodeAt(i int) *node {
	level := 0
	for 1<<(level+1) <= i {
		level++
	}
	return &q.levels[level][i-(1<<level)]
}

// grow adds one level.
func (q *Queue) grow() {
	q.growMu.Lock()
	defer q.growMu.Unlock()
	d := q.depth.Load()
	if d+1 >= maxDepth {
		return
	}
	q.levels[d+1] = newLevel(int(d + 1))
	q.depth.Store(d + 1)
}

// Name implements pq.Queue.
func (q *Queue) Name() string { return "mound" }

// Handle implements pq.Queue.
func (q *Queue) Handle() pq.Handle {
	return &Handle{q: q, rng: rng.New(q.seed.Add(0x9e3779b97f4a7c15))}
}

// Handle is a per-goroutine handle carrying the leaf-selection RNG.
type Handle struct {
	q   *Queue
	rng *rng.Xoroshiro
}

var _ pq.Handle = (*Handle)(nil)
var _ pq.Peeker = (*Handle)(nil)

// Insert implements pq.Handle.
func (h *Handle) Insert(key, value uint64) {
	q := h.q
	for attempt := 0; ; attempt++ {
		depth := int(q.depth.Load())
		leaf := 1<<depth + int(h.rng.Uintn(uint64(1)<<depth))
		if q.tryInsertOnPath(leaf, depth, key, value) {
			return
		}
		if attempt > 0 && attempt%growRetries == 0 {
			q.grow()
		}
	}
}

// tryInsertOnPath binary-searches the root-to-leaf path for the shallowest
// node with head >= key, then validates and pushes under locks.
func (q *Queue) tryInsertOnPath(leaf, depth int, key, value uint64) bool {
	// Heads are non-decreasing from root to leaf, so find the shallowest
	// level whose head is >= key.
	lo, hi := 0, depth // level indices; node at level l is leaf >> (depth-l)
	if q.nodeAt(leaf).head.Load() < key {
		return false // even the leaf is too small; try another leaf
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if q.nodeAt(leaf>>(depth-mid)).head.Load() >= key {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	vIdx := leaf >> (depth - lo)
	v := q.nodeAt(vIdx)
	if vIdx == 1 {
		v.mu.Lock()
		if v.head.Load() < key {
			v.mu.Unlock()
			return false
		}
		v.list = append(v.list, pq.Item{Key: key, Value: value})
		v.updateHead()
		v.mu.Unlock()
		return true
	}
	parent := q.nodeAt(vIdx / 2)
	parent.mu.Lock()
	v.mu.Lock()
	// Validate the probe under locks: pushing key at v's head must keep
	// both v's list order and the parent invariant.
	if v.head.Load() < key || parent.head.Load() > key {
		v.mu.Unlock()
		parent.mu.Unlock()
		return false
	}
	v.list = append(v.list, pq.Item{Key: key, Value: value})
	v.updateHead()
	v.mu.Unlock()
	parent.mu.Unlock()
	return true
}

// DeleteMin implements pq.Handle: pop the root head, then moundify.
func (h *Handle) DeleteMin() (key, value uint64, ok bool) {
	q := h.q
	root := q.nodeAt(1)
	root.mu.Lock()
	n := len(root.list)
	if n == 0 {
		// Invariant: an empty root implies an empty mound.
		root.mu.Unlock()
		return 0, 0, false
	}
	it := root.list[n-1]
	root.list = root.list[:n-1]
	root.updateHead()
	q.moundify(1, root) // unlocks root
	return it.Key, it.Value, true
}

// moundify restores head(parent) <= head(child) downward from node i,
// hand-over-hand. The caller passes node i locked; moundify unlocks it.
func (q *Queue) moundify(i int, n *node) {
	depth := int(q.depth.Load())
	for {
		left := 2 * i
		if left >= 1<<(depth+1) {
			break // n is a leaf of the allocated tree
		}
		ln, rn := q.nodeAt(left), q.nodeAt(left+1)
		ln.mu.Lock()
		rn.mu.Lock()
		nh, lh, rh := n.head.Load(), ln.head.Load(), rn.head.Load()
		if nh <= lh && nh <= rh {
			rn.mu.Unlock()
			ln.mu.Unlock()
			break
		}
		var child *node
		var childIdx int
		if lh <= rh {
			child, childIdx = ln, left
			rn.mu.Unlock()
		} else {
			child, childIdx = rn, left+1
			ln.mu.Unlock()
		}
		// Swap the whole lists: the smaller list moves up.
		n.list, child.list = child.list, n.list
		n.updateHead()
		child.updateHead()
		n.mu.Unlock()
		n, i = child, childIdx
	}
	n.mu.Unlock()
}

// PeekMin reports the root head without removing it.
func (h *Handle) PeekMin() (key, value uint64, ok bool) {
	root := h.q.nodeAt(1)
	root.mu.Lock()
	defer root.mu.Unlock()
	if len(root.list) == 0 {
		return 0, 0, false
	}
	it := root.list[len(root.list)-1]
	return it.Key, it.Value, true
}

// Len counts items across all nodes (O(nodes); tests only).
func (q *Queue) Len() int {
	total := 0
	depth := int(q.depth.Load())
	for l := 0; l <= depth; l++ {
		for i := range q.levels[l] {
			n := &q.levels[l][i]
			n.mu.Lock()
			total += len(n.list)
			n.mu.Unlock()
		}
	}
	return total
}
