package seqheap

import "cpq/internal/pq"

// quadRoot is the QuadHeap's root slot. Slots 0-2 hold no items so that
// the children of slot i, 4(i-2) ... 4(i-2)+3, start at a multiple of 4
// items: with 16-byte items every sibling group is one 64-byte cache line
// of the backing array, once that array is 64-byte aligned. Go gives every
// pointer-free allocation of 512 bytes or more that alignment (its size
// classes from there on are multiples of 64, and larger objects start on
// a page), so every heap past a few dozen items is aligned without padding.
//
// Two of those slots carry Pop's state instead of the header: they share
// the root's cache line, which Pop writes anyway, and so the header stays
// one slice (a MultiQueue sub-queue fits two heaps in its cache line).
const quadRoot = 3

// Pop's state in the padding slots' keys.
const (
	aheadSlot   = 0 // XOR of the look-ahead reads; its value means nothing
	lastPopSlot = 1 // key of the latest pop (LastPop)
)

// QuadHeap is a sequential 4-ary min-heap over pq.Item ordered by Key, laid
// out so that each group of 4 siblings fills one cache line (see quadRoot).
// A pop walks about half the levels of a binary heap, one cache line and 3
// compares per level, which is why it backs every MultiQueue sub-queue:
// there the sift-down of large heaps bounds the deletion cost.
//
// The heap remembers the key of its latest pop (LastPop): a MultiQueue
// sub-queue routes each push by it, keeping keys below that floor in a
// second heap (see package multiq).
//
// The zero value is an empty heap ready for use. Not safe for concurrent
// use.
type QuadHeap struct {
	a []pq.Item // a[quadRoot] is the root; a[:quadRoot] is padding
}

// Len reports the number of items in the heap.
func (h *QuadHeap) Len() int { return max(len(h.a)-quadRoot, 0) }

// LastPop returns the key of the item the latest Pop removed, or 0 before
// the first pop. Pushes do not change it, and a drained heap keeps it.
func (h *QuadHeap) LastPop() uint64 {
	if len(h.a) < quadRoot {
		return 0
	}
	return h.a[lastPopSlot].Key
}

// Min returns the minimum item without removing it.
func (h *QuadHeap) Min() (pq.Item, bool) {
	if len(h.a) <= quadRoot {
		return pq.Item{}, false
	}
	return h.a[quadRoot], true
}

// Push inserts an item.
func (h *QuadHeap) Push(it pq.Item) {
	if len(h.a) < quadRoot {
		h.a = make([]pq.Item, quadRoot, quadRoot+5) // padding, root, one group
	}
	h.a = append(h.a, it)
	a := h.a
	i := len(a) - 1
	for i > quadRoot {
		parent := i>>2 + 2
		if a[parent].Key <= it.Key {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = it
}

// Pop removes and returns the minimum item: the last item sifts down from
// the root, taking at each level the smallest of a full sibling group
// with an unrolled min-of-4.
//
// In a heap larger than the cache, the sift-down waits on one cache miss
// per level, and the next level's address is known only once this level
// is compared. So each level also reads the first key of each of its 4
// children's own groups: the 4 lines the next level's group is one of.
// Their misses then overlap this level's instead of following it (Go has
// no prefetch instruction). On bench/'s split-asc workload those reads
// raised throughput by about a sixth over the same heap without them; on
// fig4a, whose smaller heaps miss less, they cost some delete latency
// (EXPERIMENTS.md, "4-ary sub-heaps"). Their XOR is stored in a padding
// slot, which keeps the compiler from dropping them.
func (h *QuadHeap) Pop() (pq.Item, bool) {
	n := len(h.a) - 1
	if n < quadRoot {
		return pq.Item{}, false
	}
	a := h.a
	min, it := a[quadRoot], a[n]
	a = a[:n]
	h.a = a
	a[lastPopSlot].Key = min.Key
	if n == quadRoot {
		return min, true
	}
	i := quadRoot
	var ahead uint64
	for {
		c := 4 * (i - 2)
		if c+4 > n {
			// The last, partial group: its items have no children.
			if c < n {
				least := c
				for j := c + 1; j < n; j++ {
					if a[j].Key < a[least].Key {
						least = j
					}
				}
				if a[least].Key < it.Key {
					a[i] = a[least]
					i = least
				}
			}
			break
		}
		if gc := 4*c - 8; gc+12 < n {
			ahead ^= a[gc].Key ^ a[gc+4].Key ^ a[gc+8].Key ^ a[gc+12].Key
		}
		g := (*[4]pq.Item)(a[c : c+4])
		least, k := 0, g[0].Key
		if g[1].Key < k {
			least, k = 1, g[1].Key
		}
		if g[2].Key < k {
			least, k = 2, g[2].Key
		}
		if g[3].Key < k {
			least, k = 3, g[3].Key
		}
		if it.Key <= k {
			break
		}
		a[i] = g[least]
		i = c + least
	}
	a[i] = it
	a[aheadSlot].Key = ahead
	return min, true
}

// invariantOK reports whether every item's key is >= its parent's (tests).
func (h *QuadHeap) invariantOK() bool {
	for c := quadRoot + 1; c < len(h.a); c++ {
		if h.a[c>>2+2].Key > h.a[c].Key {
			return false
		}
	}
	return true
}
