package seqheap

import (
	"math"
	"sort"
	"testing"

	"cpq/internal/pq"
	"cpq/internal/rng"
)

// radixRef is the sorted reference a RadixHeap is checked against: its
// items sorted by key and then value, and the floor the heap must report.
type radixRef struct {
	a     []pq.Item
	floor uint64
}

func (r *radixRef) search(it pq.Item) int {
	return sort.Search(len(r.a), func(i int) bool {
		return r.a[i].Key > it.Key || r.a[i].Key == it.Key && r.a[i].Value >= it.Value
	})
}

func (r *radixRef) push(it pq.Item) {
	i := r.search(it)
	r.a = append(r.a, pq.Item{})
	copy(r.a[i+1:], r.a[i:])
	r.a[i] = it
}

// pop removes got, failing unless it holds the minimum key and is an
// item the reference holds, and moves the floor by the heap's rule.
func (r *radixRef) pop(t *testing.T, step int, got pq.Item) {
	t.Helper()
	i := r.search(got)
	if len(r.a) == 0 || got.Key != r.a[0].Key || i == len(r.a) || r.a[i] != got {
		t.Fatalf("step %d: popped %+v, want key %v", step, got, r.a[:min(len(r.a), 1)])
	}
	r.a = append(r.a[:i], r.a[i+1:]...)
	r.floor = got.Key
	if len(r.a) > 0 {
		r.floor = r.a[0].Key
	}
}

func (r *radixRef) check(t *testing.T, step int, h *RadixHeap) {
	t.Helper()
	if h.Len() != len(r.a) {
		t.Fatalf("step %d: Len = %d, want %d", step, h.Len(), len(r.a))
	}
	if h.Floor() != r.floor {
		t.Fatalf("step %d: Floor = %d, want %d", step, h.Floor(), r.floor)
	}
	it, ok := h.Min()
	if ok != (len(r.a) > 0) || ok && it.Key != r.a[0].Key {
		t.Fatalf("step %d: Min = %d/%v, want %v", step, it.Key, ok, r.a[:min(len(r.a), 1)])
	}
	if h.Len() != len(r.a) || h.Floor() != r.floor {
		t.Fatalf("step %d: Min changed Len to %d or Floor to %d", step, h.Len(), h.Floor())
	}
}

// radixKey draws a key at or above floor: the floor itself (runs of it),
// 2^64-1, or the floor plus an offset of random width, so every digit
// position gets keys, saturating at 2^64-1.
func radixKey(r *rng.Xoroshiro, floor uint64) uint64 {
	switch r.Uintn(8) {
	case 0, 1:
		return floor
	case 2:
		return math.MaxUint64
	}
	off := r.Uint64() >> r.Uintn(64)
	if floor+off < floor {
		return math.MaxUint64
	}
	return floor + off
}

// TestRadixHeapSortedReference drives heaps with seeded random push, pop
// and Min calls against radixRef, checking every call: batches of keys
// at or above the floor (runs of keys equal to it, 0 while the floor is
// 0, 2^64-1, offsets of every width), batches past the 512-item inbox,
// and drains followed by refills above the old floor.
func TestRadixHeapSortedReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		var h RadixHeap
		ref := &radixRef{}
		r := rng.New(seed)
		ref.check(t, -1, &h)
		if _, ok := h.Pop(); ok {
			t.Fatalf("seed %d: Pop on the zero value returned an item", seed)
		}
		var id uint64
		for step := 0; step < 3_000; step++ {
			switch op := r.Uintn(16); {
			case op < 7: // a batch of pushes; some overflow the inbox
				n := 1 + int(r.Uintn(16))
				if op == 0 {
					n = inboxItems + 1 + int(r.Uintn(64))
				}
				for ; n > 0; n-- {
					id++
					it := pq.Item{Key: radixKey(r, h.Floor()), Value: id}
					h.Push(it)
					ref.push(it)
				}
			case op < 14: // a batch of pops
				for n := 1 + int(r.Uintn(24)); n > 0; n-- {
					it, ok := h.Pop()
					if ok != (len(ref.a) > 0) {
						t.Fatalf("seed %d step %d: Pop ok = %v with %d items", seed, step, ok, len(ref.a))
					}
					if !ok {
						break
					}
					ref.pop(t, step, it)
				}
			default: // drain, then refill above the old floor
				for len(ref.a) > 0 {
					it, _ := h.Pop()
					ref.pop(t, step, it)
				}
				if _, ok := h.Pop(); ok {
					t.Fatalf("seed %d step %d: Pop on the drained heap returned an item", seed, step)
				}
			}
			ref.check(t, step, &h)
		}
	}
}

// TestRadixHeapPushBelowFloorPanics pins Push's precondition.
func TestRadixHeapPushBelowFloorPanics(t *testing.T) {
	var h RadixHeap
	h.Push(pq.Item{Key: 10})
	h.Push(pq.Item{Key: 20})
	h.Pop() // floor 20
	defer func() {
		if recover() == nil {
			t.Fatalf("Push of key 19 under floor %d did not panic", h.Floor())
		}
	}()
	h.Push(pq.Item{Key: 19})
}

// radixChurn pushes one rising key and pops one item, n times: a heap of
// constant size, its keys spread over several digits above the floor.
func radixChurn(h *RadixHeap, r *rng.Xoroshiro, n int) {
	for ; n > 0; n-- {
		h.Push(pq.Item{Key: h.Floor() + r.Uint64()%(1<<20)})
		h.Pop()
	}
}

// TestRadixHeapWarmZeroAllocs gates the steady state: once a heap has
// allocated its body and the chunks its size needs, a push and a pop
// allocate nothing.
func TestRadixHeapWarmZeroAllocs(t *testing.T) {
	var h RadixHeap
	r := rng.New(3)
	for i := 0; i < 50_000; i++ {
		h.Push(pq.Item{Key: r.Uint64() % (1 << 20)})
	}
	radixChurn(&h, r, 500_000)
	if allocs := testing.AllocsPerRun(10_000, func() { radixChurn(&h, r, 1) }); allocs != 0 {
		t.Fatalf("push + pop on a warm heap: %v allocs, want 0", allocs)
	}
}

// chunks counts the chunks h holds, in its buckets and its free list.
func (h *RadixHeap) chunks() int {
	n := 0
	for _, c := range append(h.b.head[:], h.b.free) {
		for ; c != nil; c = c.next {
			n++
		}
	}
	return n
}

// TestRadixHeapReusesChunks bounds the chunks a heap holds by its size:
// one per 63 items plus one partly full chunk per bucket, whether the
// heap is filled once, churned at that size, or drained and refilled
// above the old floor (a design that allocated fresh chunks for the
// refill would hold about twice as many).
func TestRadixHeapReusesChunks(t *testing.T) {
	const n = 100_000
	bound := (n+chunkItems-1)/chunkItems + radixBuckets
	var h RadixHeap
	r := rng.New(4)
	fill := func(stage string) {
		for h.Len() < n {
			h.Push(pq.Item{Key: h.Floor() + r.Uint64()%(1<<32)})
		}
		if c := h.chunks(); c > bound {
			t.Fatalf("%s to %d items: %d chunks, want at most %d", stage, n, c, bound)
		}
	}
	fill("filled")
	radixChurn(&h, r, 4*n)
	for h.Len() > 0 {
		h.Pop()
	}
	floor := h.Floor()
	fill("drained and refilled")
	if it, _ := h.Min(); it.Key < floor {
		t.Fatalf("refill went below the old floor %d: minimum %d", floor, it.Key)
	}
	radixChurn(&h, r, 4*n)
	if c := h.chunks(); c > bound {
		t.Fatalf("churned after the refill: %d chunks, want at most %d", c, bound)
	}
}
