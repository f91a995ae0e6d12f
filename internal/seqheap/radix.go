package seqheap

import (
	"math"
	"math/bits"

	"cpq/internal/pq"
)

// The radix heap's geometry. A key's bucket is the highest base-16 digit
// in which it differs from the floor, and the key's value in that digit:
// bucket d<<4 | v for digit d and value v (1-15, since the key is above
// the floor). Bucket 0 holds the keys equal to the floor. Every key of a
// bucket is below every key of each higher bucket.
const (
	digitBits    = 4
	radixBuckets = 64 / digitBits << digitBits // 256
	chunkItems   = 63                          // a chunk, with its link and count, is 1 KiB
	inboxItems   = 512
)

// RadixHeap is a monotone min-queue of pq.Item ordered by Key: a push
// takes only keys at or above the floor, and the floor only rises. It is
// the radix heap of Ahuja, Mehlhorn, Orlin and Tarjan (JACM 1990), with
// base-16 digits: each key sits in a bucket named by the highest digit in
// which it differs from the floor (see radixBuckets), so a push is O(1)
// and a pop takes the floor's bucket, or else scans the lowest non-empty
// bucket for its minimum, makes that the floor and moves the bucket's
// items down into lower buckets. Each move takes an item to a lower digit,
// so an item moves at most 16 times, each move a sequential read and an
// append, where a pop from a 4-ary heap of 250k items sifts a leaf down
// through 9 cache misses.
//
// The floor moves only at a pop: to the new minimum, or to the popped key
// when the pop empties the heap. A push-only fill leaves it at 0. It is
// the key a MultiQueue sub-queue routes each push by (package multiq), so
// it sits in the header, beside a pointer to the rest.
//
// A bucket is a stack of 63-item chunks, the head one partly full, taken
// from and returned to a free list of the heap's own: the heap holds the
// chunks of the most items it has held, plus at most one partly full
// chunk per bucket, and a warm heap allocates nothing. A push does not touch the buckets: it appends to a
// 512-item inbox, which the next pop, Min or full inbox buckets. When one
// goroutine pushes and another pops, the pusher then writes only the
// inbox and the counts, and the chunks stay in the popper's cache.
//
// The zero value is an empty heap with floor 0, ready for use. Not safe
// for concurrent use.
type RadixHeap struct {
	floor uint64
	b     *radixBody // nil until the first push
}

// chunk is one link of a bucket's stack.
type chunk struct {
	next *chunk
	n    int
	a    [chunkItems]pq.Item
}

type radixBody struct {
	// The counts, on a line of their own: a push writes them, and so
	// does a pop, but a push writes none of the bucket heads below, which
	// every pop writes. Without the padding, bench/'s split-asc read its
	// insert p50 16% above the cold 4-ary heap's (4 pairs), against 6%
	// with it (EXPERIMENTS.md, "A radix heap for the cold tier").
	n  int // items held, the inbox's included
	in int // items in the inbox
	_  [48]byte

	head  [radixBuckets]*chunk      // each bucket's stack; nil when empty
	used  [radixBuckets / 64]uint64 // bit i set iff bucket i is non-empty
	free  *chunk                    // released chunks, linked by next
	inbox [inboxItems]pq.Item       // pushed items not yet bucketed
}

// bucketOf returns the bucket of key under floor; key >= floor.
func bucketOf(key, floor uint64) int {
	x := key ^ floor
	if x == 0 {
		return 0
	}
	d := uint(bits.Len64(x)-1) / digitBits
	return int(d<<digitBits | uint(key>>(d*digitBits))&(1<<digitBits-1))
}

// Len reports the number of items in the heap.
func (h *RadixHeap) Len() int {
	if h.b == nil {
		return 0
	}
	return h.b.n
}

// Floor returns the floor: every key in the heap is at or above it, and
// Push takes no key below it.
func (h *RadixHeap) Floor() uint64 { return h.floor }

// Push inserts an item. It panics if the item's key is below the floor.
func (h *RadixHeap) Push(it pq.Item) {
	if it.Key < h.floor {
		panic("seqheap: RadixHeap.Push below the floor")
	}
	b := h.b
	if b == nil {
		b = new(radixBody)
		h.b = b
	}
	if b.in == inboxItems {
		b.settle(h.floor)
	}
	b.inbox[b.in] = it
	b.in++
	b.n++
}

// Min returns the minimum item without removing it. It buckets the inbox
// unless the floor's bucket holds an item, as it does after every pop
// that leaves the heap non-empty.
func (h *RadixHeap) Min() (pq.Item, bool) {
	b := h.b
	if b == nil || b.n == 0 {
		return pq.Item{}, false
	}
	if c := b.head[0]; c != nil {
		return c.a[c.n-1], true
	}
	b.settle(h.floor)
	i := b.lowest()
	c := b.head[i]
	least := c.a[c.n-1]
	for ; c != nil; c = c.next {
		for _, it := range c.a[:c.n] {
			if it.Key < least.Key {
				least = it
			}
		}
	}
	return least, true
}

// Pop removes and returns the minimum item, and moves the floor to the
// new minimum (see RadixHeap).
func (h *RadixHeap) Pop() (pq.Item, bool) {
	b := h.b
	if b == nil || b.n == 0 {
		return pq.Item{}, false
	}
	if b.in > 0 {
		b.settle(h.floor)
	}
	if b.head[0] == nil {
		h.floor = b.refloor()
	}
	c := b.head[0]
	c.n--
	it := c.a[c.n]
	b.n--
	if c.n == 0 {
		b.head[0] = c.next
		b.release(c)
		if b.head[0] == nil {
			b.used[0] &^= 1
			if b.n > 0 {
				h.floor = b.refloor()
			}
		}
	}
	return it, true
}

// settle buckets the inbox under floor.
func (b *radixBody) settle(floor uint64) {
	for _, it := range b.inbox[:b.in] {
		b.put(bucketOf(it.Key, floor), it)
	}
	b.in = 0
}

// put pushes it onto bucket i, starting a chunk when the head one is full.
func (b *radixBody) put(i int, it pq.Item) {
	c := b.head[i]
	if c == nil || c.n == chunkItems {
		if c == nil {
			b.used[i/64] |= 1 << (i % 64)
		}
		nc := b.free
		if nc != nil {
			b.free = nc.next
		} else {
			nc = new(chunk)
		}
		nc.next = c
		b.head[i] = nc
		c = nc
	}
	c.a[c.n] = it
	c.n++
}

// release returns an emptied chunk to the free list.
func (b *radixBody) release(c *chunk) {
	c.n = 0
	c.next = b.free
	b.free = c
}

// lowest returns the lowest non-empty bucket; some bucket holds an item.
func (b *radixBody) lowest() int {
	w := 0
	for b.used[w] == 0 {
		w++
	}
	return w*64 + bits.TrailingZeros64(b.used[w])
}

// refloor empties the lowest non-empty bucket into lower ones around its
// minimum key, and returns that key, the new floor. Each moved key shares
// with the new floor every digit from its old bucket's upward, so it
// lands in a strictly lower bucket, and every other bucket stays valid.
// It requires the floor's bucket and the inbox empty and the heap not.
func (b *radixBody) refloor() uint64 {
	i := b.lowest()
	c := b.head[i]
	b.head[i] = nil
	b.used[i/64] &^= 1 << (i % 64)
	floor := uint64(math.MaxUint64)
	for k := c; k != nil; k = k.next {
		for _, it := range k.a[:k.n] {
			floor = min(floor, it.Key)
		}
	}
	for c != nil {
		for _, it := range c.a[:c.n] {
			b.put(bucketOf(it.Key, floor), it)
		}
		next := c.next
		b.release(c)
		c = next
	}
	return floor
}
