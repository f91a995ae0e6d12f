package seqheap

import (
	"sort"
	"testing"
	"testing/quick"

	"cpq/internal/pq"
	"cpq/internal/rng"
)

func TestPairingEmpty(t *testing.T) {
	var h PairingHeap
	if h.Len() != 0 {
		t.Fatal("zero heap not empty")
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty returned ok")
	}
	if _, ok := h.Min(); ok {
		t.Fatal("Min on empty returned ok")
	}
}

func TestPairingSorts(t *testing.T) {
	var h PairingHeap
	r := rng.New(1)
	const n = 5000
	want := make([]uint64, n)
	for i := range want {
		k := r.Uint64() % 700
		want[i] = k
		h.Push(pq.Item{Key: k, Value: k + 1})
	}
	if h.Len() != n {
		t.Fatalf("Len = %d", h.Len())
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := 0; i < n; i++ {
		it, ok := h.Pop()
		if !ok || it.Key != want[i] || it.Value != it.Key+1 {
			t.Fatalf("pop %d = %+v/%v, want key %d", i, it, ok, want[i])
		}
	}
	if h.Len() != 0 {
		t.Fatal("not empty after drain")
	}
}

func TestPairingMatchesBinaryHeap(t *testing.T) {
	if err := quick.Check(func(keys []uint16, popEvery uint8) bool {
		var bin Heap
		var ph PairingHeap
		interval := int(popEvery%5) + 1
		for i, k := range keys {
			bin.Push(pq.Item{Key: uint64(k)})
			ph.Push(pq.Item{Key: uint64(k)})
			if i%interval == 0 {
				a, aok := bin.Pop()
				b, bok := ph.Pop()
				if aok != bok || a.Key != b.Key {
					return false
				}
			}
			if !ph.invariantOK() {
				return false
			}
		}
		for bin.Len() > 0 {
			a, _ := bin.Pop()
			b, ok := ph.Pop()
			if !ok || a.Key != b.Key {
				return false
			}
		}
		_, ok := ph.Pop()
		return !ok
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPairingClearAndReuse(t *testing.T) {
	var h PairingHeap
	for i := uint64(0); i < 100; i++ {
		h.Push(pq.Item{Key: i})
	}
	h.Clear()
	if h.Len() != 0 {
		t.Fatal("Clear left items")
	}
	h.Push(pq.Item{Key: 9})
	if it, ok := h.Pop(); !ok || it.Key != 9 {
		t.Fatal("heap unusable after Clear")
	}
}

func TestPairingFreelistRecycles(t *testing.T) {
	var h PairingHeap
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 1000; i++ {
			h.Push(pq.Item{Key: i})
		}
		for i := uint64(0); i < 1000; i++ {
			if it, ok := h.Pop(); !ok || it.Key != i {
				t.Fatalf("round %d pop %d wrong", round, i)
			}
		}
	}
}
