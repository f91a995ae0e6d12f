// Package seqheap provides the sequential priority queues of the suite
// and the GlobalLock baseline queue built from one of them.
//
// The paper uses "a simple, standardized sequential priority queue
// implementation protected by a global lock ... to establish a baseline for
// acceptable performance" (std::priority_queue + lock in the C++ code). The
// binary Heap here is the std::priority_queue equivalent and backs
// GlobalLock. The other two are the tiers of every MultiQueue sub-queue
// (see package multiq): RadixHeap, a monotone radix heap, is the cold
// tier, and its floor routes the sub-queue's pushes; QuadHeap, a 4-ary
// heap whose sibling groups each fill one cache line, is the hot tier and
// takes the keys below that floor. A pop drains hot first, so the
// sub-queue stays exact.
package seqheap

import (
	"sync"

	"cpq/internal/pq"
)

// Heap is a sequential binary min-heap over pq.Item ordered by Key.
// The zero value is an empty heap ready for use. Not safe for concurrent
// use; wrap it (see GlobalLock) for concurrent access.
type Heap struct {
	a []pq.Item
}

// NewHeap returns an empty heap with capacity hint n.
func NewHeap(n int) *Heap {
	return &Heap{a: make([]pq.Item, 0, n)}
}

// Len reports the number of items in the heap.
func (h *Heap) Len() int { return len(h.a) }

// Push inserts an item.
func (h *Heap) Push(it pq.Item) {
	h.a = append(h.a, it)
	h.siftUp(len(h.a) - 1)
}

// Min returns the minimum item without removing it.
func (h *Heap) Min() (pq.Item, bool) {
	if len(h.a) == 0 {
		return pq.Item{}, false
	}
	return h.a[0], true
}

// Pop removes and returns the minimum item.
func (h *Heap) Pop() (pq.Item, bool) {
	n := len(h.a)
	if n == 0 {
		return pq.Item{}, false
	}
	min := h.a[0]
	h.a[0] = h.a[n-1]
	h.a = h.a[:n-1]
	if len(h.a) > 0 {
		h.siftDown(0)
	}
	return min, true
}

// Clear empties the heap, retaining capacity.
func (h *Heap) Clear() { h.a = h.a[:0] }

// PushN inserts every element of its (one sift-up per item; the win of the
// batch APIs built on it is the single lock acquisition around the call,
// not the heap arithmetic).
func (h *Heap) PushN(its []pq.Item) {
	for _, it := range its {
		h.Push(it)
	}
}

// PopN removes up to max smallest items, appending them to dst in ascending
// key order, and returns the extended slice. GlobalLock's DeleteMinN uses
// it to amortize its one lock acquisition over a deletion batch.
func (h *Heap) PopN(dst []pq.Item, max int) []pq.Item {
	for i := 0; i < max; i++ {
		it, ok := h.Pop()
		if !ok {
			break
		}
		dst = append(dst, it)
	}
	return dst
}

func (h *Heap) siftUp(i int) {
	it := h.a[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.a[parent].Key <= it.Key {
			break
		}
		h.a[i] = h.a[parent]
		i = parent
	}
	h.a[i] = it
}

func (h *Heap) siftDown(i int) {
	n := len(h.a)
	it := h.a[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h.a[r].Key < h.a[l].Key {
			least = r
		}
		if it.Key <= h.a[least].Key {
			break
		}
		h.a[i] = h.a[least]
		i = least
	}
	h.a[i] = it
}

// invariantOK reports whether the heap-shape property holds; exported to
// tests via the export_test pattern.
func (h *Heap) invariantOK() bool {
	for i := 1; i < len(h.a); i++ {
		if h.a[(i-1)/2].Key > h.a[i].Key {
			return false
		}
	}
	return true
}

// GlobalLock is the paper's baseline: a sequential heap protected by a
// single global mutex. Strict semantics, zero scalability by construction.
type GlobalLock struct {
	mu sync.Mutex
	h  Heap
}

var _ pq.Queue = (*GlobalLock)(nil)
var _ pq.Handle = (*GlobalLock)(nil)
var _ pq.Peeker = (*GlobalLock)(nil)
var _ pq.BatchInserter = (*GlobalLock)(nil)
var _ pq.BatchDeleter = (*GlobalLock)(nil)

// NewGlobalLock returns an empty GlobalLock queue.
func NewGlobalLock() *GlobalLock { return &GlobalLock{} }

// Name implements pq.Queue.
func (g *GlobalLock) Name() string { return "globallock" }

// Handle implements pq.Queue. The queue has no thread-local state, so the
// queue itself serves as the handle.
func (g *GlobalLock) Handle() pq.Handle { return g }

// Insert implements pq.Handle.
func (g *GlobalLock) Insert(key, value uint64) {
	g.mu.Lock()
	g.h.Push(pq.Item{Key: key, Value: value})
	g.mu.Unlock()
}

// DeleteMin implements pq.Handle. It returns the exact minimum.
func (g *GlobalLock) DeleteMin() (key, value uint64, ok bool) {
	g.mu.Lock()
	it, ok := g.h.Pop()
	g.mu.Unlock()
	return it.Key, it.Value, ok
}

// InsertN implements pq.BatchInserter: the whole batch goes in under ONE
// acquisition of the global lock — for this baseline the batch API removes
// exactly the structure's bottleneck, so it shows the largest batching
// speedup in the suite (DESIGN.md §4c).
func (g *GlobalLock) InsertN(kvs []pq.KV) {
	if len(kvs) == 0 {
		return
	}
	g.mu.Lock()
	g.h.PushN(kvs)
	g.mu.Unlock()
}

// DeleteMinN implements pq.BatchDeleter: up to n exact minima under one
// acquisition of the global lock.
func (g *GlobalLock) DeleteMinN(dst []pq.KV, n int) int {
	if n > len(dst) {
		n = len(dst)
	}
	if n <= 0 {
		return 0
	}
	g.mu.Lock()
	got := len(g.h.PopN(dst[:0], n))
	g.mu.Unlock()
	return got
}

// PeekMin implements pq.Peeker.
func (g *GlobalLock) PeekMin() (key, value uint64, ok bool) {
	g.mu.Lock()
	it, ok := g.h.Min()
	g.mu.Unlock()
	return it.Key, it.Value, ok
}

// Len reports the current number of items.
func (g *GlobalLock) Len() int {
	g.mu.Lock()
	n := g.h.Len()
	g.mu.Unlock()
	return n
}
