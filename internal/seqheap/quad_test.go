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
