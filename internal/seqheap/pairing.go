package seqheap

import "cpq/internal/pq"

// PairingHeap is a sequential pairing heap — the pointer-based contender in
// Larkin, Sen and Tarjan's "Back-to-Basics Empirical Study of Priority
// Queues" (the study behind the paper's sorting-benchmark remark). Insert
// and meld are O(1); delete-min is O(log n) amortized via two-pass pairing.
// It rounds out the sequential-substrate ablation against the implicit
// binary and 4-ary heaps: pointer structure vs. array locality.
//
// The zero value is an empty heap ready for use. Not safe for concurrent
// use; wrap it (e.g. as a MultiQueue SubHeap) for concurrent access.
type PairingHeap struct {
	root *pairNode
	n    int
	free *pairNode // freelist to soften allocation pressure
}

type pairNode struct {
	it      pq.Item
	child   *pairNode // leftmost child
	sibling *pairNode // next sibling to the right
}

// Len reports the number of items.
func (h *PairingHeap) Len() int { return h.n }

// Push inserts an item: meld a singleton with the root, O(1).
func (h *PairingHeap) Push(it pq.Item) {
	node := h.alloc(it)
	h.root = meldPair(h.root, node)
	h.n++
}

// PushN inserts every element of its.
func (h *PairingHeap) PushN(its []pq.Item) {
	for _, it := range its {
		h.Push(it)
	}
}

// Min returns the minimum item without removing it.
func (h *PairingHeap) Min() (pq.Item, bool) {
	if h.root == nil {
		return pq.Item{}, false
	}
	return h.root.it, true
}

// Pop removes and returns the minimum item: two-pass pairing of the root's
// children, O(log n) amortized.
func (h *PairingHeap) Pop() (pq.Item, bool) {
	if h.root == nil {
		return pq.Item{}, false
	}
	min := h.root.it
	old := h.root
	h.root = twoPassPair(old.child)
	h.n--
	h.release(old)
	return min, true
}

// Clear empties the heap (dropping the freelist too, so memory returns to
// the GC).
func (h *PairingHeap) Clear() {
	h.root, h.free, h.n = nil, nil, 0
}

// PopN removes up to max smallest items, appending them to dst in ascending
// key order, and returns the extended slice (see Heap.PopN).
func (h *PairingHeap) PopN(dst []pq.Item, max int) []pq.Item {
	for i := 0; i < max; i++ {
		it, ok := h.Pop()
		if !ok {
			break
		}
		dst = append(dst, it)
	}
	return dst
}

// meldPair links two pairing-heap roots; the larger root becomes the
// leftmost child of the smaller.
func meldPair(a, b *pairNode) *pairNode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if b.it.Key < a.it.Key {
		a, b = b, a
	}
	b.sibling = a.child
	a.child = b
	return a
}

// twoPassPair merges a sibling list: first pass pairs adjacent siblings
// left to right, second pass melds the pairs right to left.
func twoPassPair(first *pairNode) *pairNode {
	if first == nil {
		return nil
	}
	// First pass: build a list of paired subtrees (reusing sibling links).
	var pairs *pairNode
	for first != nil {
		a := first
		b := a.sibling
		if b == nil {
			a.sibling = pairs
			pairs = a
			break
		}
		next := b.sibling
		a.sibling, b.sibling = nil, nil
		m := meldPair(a, b)
		m.sibling = pairs
		pairs = m
		first = next
	}
	// Second pass: meld the pairs back into one tree.
	var root *pairNode
	for pairs != nil {
		next := pairs.sibling
		pairs.sibling = nil
		root = meldPair(root, pairs)
		pairs = next
	}
	return root
}

func (h *PairingHeap) alloc(it pq.Item) *pairNode {
	n := h.free
	if n != nil {
		h.free = n.sibling
		n.it, n.child, n.sibling = it, nil, nil
	} else {
		n = &pairNode{it: it}
	}
	return n
}

func (h *PairingHeap) release(n *pairNode) {
	n.child = nil
	n.sibling = h.free
	h.free = n
}

// invariantOK reports whether every child key is >= its parent's (tests).
func (h *PairingHeap) invariantOK() bool {
	var check func(n *pairNode) bool
	check = func(n *pairNode) bool {
		if n == nil {
			return true
		}
		for c := n.child; c != nil; c = c.sibling {
			if c.it.Key < n.it.Key || !check(c) {
				return false
			}
		}
		return true
	}
	return check(h.root)
}
