package seqheap

import (
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"cpq/internal/pq"
	"cpq/internal/rng"
)

// TestQuadHeapSortedReference drains heaps of every size from empty to past
// four levels below the root (1+4+16+64 = 85 items), including every size
// that ends mid sibling group, against a sorted copy of their input. Keys
// repeat; each value names the key it was pushed with, so a value that
// strays from its key shows.
func TestQuadHeapSortedReference(t *testing.T) {
	sizes := []int{341, 342, 1000, 3000}
	for n := 0; n <= 100; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		var h QuadHeap
		r := rng.New(uint64(n) + 1)
		want := make([]uint64, n)
		for i := range want {
			k := r.Uint64() % uint64(n/3+1)
			want[i] = k
			h.Push(pq.Item{Key: k, Value: k<<32 | uint64(i)})
			if !h.invariantOK() {
				t.Fatalf("n=%d: heap property broken after push %d", n, i)
			}
		}
		if h.Len() != n {
			t.Fatalf("n=%d: Len = %d after pushes", n, h.Len())
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		seen := make(map[uint64]bool, n)
		for i, k := range want {
			m, mok := h.Min()
			it, ok := h.Pop()
			if !ok || !mok || it != m {
				t.Fatalf("n=%d: pop %d = %+v/%v, Min %+v/%v", n, i, it, ok, m, mok)
			}
			if it.Key != k || it.Value>>32 != k || seen[it.Value] {
				t.Fatalf("n=%d: pop %d = %+v, want key %d with a fresh value of that key", n, i, it, k)
			}
			seen[it.Value] = true
			if !h.invariantOK() {
				t.Fatalf("n=%d: heap property broken after pop %d", n, i)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("n=%d: Len = %d after drain", n, h.Len())
		}
		if _, ok := h.Pop(); ok {
			t.Fatalf("n=%d: Pop on drained heap returned ok", n)
		}
		if _, ok := h.Min(); ok {
			t.Fatalf("n=%d: Min on drained heap returned ok", n)
		}
	}
}

func TestQuadHeapInvariantProperty(t *testing.T) {
	if err := quick.Check(func(keys []uint16, popEvery uint8) bool {
		var h QuadHeap
		interval := int(popEvery%5) + 1
		for i, k := range keys {
			h.Push(pq.Item{Key: uint64(k)})
			if i%interval == 0 {
				h.Pop()
			}
			if !h.invariantOK() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuadHeapMatchesBinaryHeap(t *testing.T) {
	if err := quick.Check(func(keys []uint16, popEvery uint8) bool {
		var bin Heap
		var qh QuadHeap
		interval := int(popEvery%5) + 1
		for i, k := range keys {
			bin.Push(pq.Item{Key: uint64(k)})
			qh.Push(pq.Item{Key: uint64(k)})
			if i%interval == 0 {
				a, aok := bin.Pop()
				b, bok := qh.Pop()
				if aok != bok || a.Key != b.Key {
					return false
				}
			}
		}
		for bin.Len() > 0 {
			a, _ := bin.Pop()
			b, ok := qh.Pop()
			if !ok || a.Key != b.Key {
				return false
			}
		}
		_, ok := qh.Pop()
		return !ok
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuadHeapLastPop pins the floor a MultiQueue sub-queue routes by: 0
// on the zero value and before the first pop, then the key of the latest
// pop, unchanged by pushes, through every growth of the backing array
// (which must carry the padding slots along) and after a drain to empty.
func TestQuadHeapLastPop(t *testing.T) {
	var h QuadHeap
	if got := h.LastPop(); got != 0 {
		t.Fatalf("zero value: LastPop = %d, want 0", got)
	}
	if _, ok := h.Pop(); ok || h.LastPop() != 0 {
		t.Fatalf("Pop on the zero value: ok %v, LastPop %d", ok, h.LastPop())
	}
	r := rng.New(5)
	for i := 0; i < 1000; i++ {
		h.Push(pq.Item{Key: 1000 + r.Uint64()%1000})
	}
	if got := h.LastPop(); got != 0 {
		t.Fatalf("after pushes only: LastPop = %d, want 0", got)
	}
	var want uint64
	for i := 0; i < 20_000; i++ {
		if r.Uintn(3) > 0 || h.Len() == 0 {
			oldCap := cap(h.a)
			h.Push(pq.Item{Key: r.Uint64() % 5000})
			if got := h.LastPop(); got != want {
				t.Fatalf("step %d: push (capacity %d -> %d) moved LastPop %d -> %d", i, oldCap, cap(h.a), want, got)
			}
			continue
		}
		it, _ := h.Pop()
		want = it.Key
		if got := h.LastPop(); got != want {
			t.Fatalf("step %d: LastPop = %d after popping %d", i, got, want)
		}
	}
	for h.Len() > 0 {
		it, _ := h.Pop()
		want = it.Key
	}
	if got := h.LastPop(); got != want {
		t.Fatalf("drained: LastPop = %d, want the last key popped, %d", got, want)
	}
	if _, ok := h.Pop(); ok || h.LastPop() != want {
		t.Fatalf("Pop on the drained heap: ok %v, LastPop %d, want %d", ok, h.LastPop(), want)
	}
	h.Push(pq.Item{Key: want + 1})
	if got := h.LastPop(); got != want {
		t.Fatalf("push after the drain: LastPop = %d, want %d", got, want)
	}
	if it, _ := h.Pop(); h.LastPop() != want+1 {
		t.Fatalf("popping the only item, %d: LastPop = %d", it.Key, h.LastPop())
	}
}

// TestQuadHeapSiblingGroupsAligned checks the layout the heap relies on:
// once a heap holds 64 items, its first sibling group, and so every
// group, starts on a 64-byte boundary, through every growth of the
// backing array, in two fresh heaps.
func TestQuadHeapSiblingGroupsAligned(t *testing.T) {
	for round := 0; round < 2; round++ {
		var h QuadHeap
		for i := 0; i < 100_000; i++ {
			h.Push(pq.Item{Key: uint64(i)})
			if h.Len() >= 64 {
				if addr := uintptr(unsafe.Pointer(&h.a[4])); addr%64 != 0 {
					t.Fatalf("round %d, %d items: first sibling group at %#x, not on a 64-byte boundary", round, h.Len(), addr)
				}
			}
		}
	}
}
