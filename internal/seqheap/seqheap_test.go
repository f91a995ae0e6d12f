package seqheap

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"cpq/internal/keys"
	"cpq/internal/pq"
	"cpq/internal/rng"
)

func TestHeapEmpty(t *testing.T) {
	var h Heap
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

func TestHeapSortsRandomInput(t *testing.T) {
	r := rng.New(1)
	h := NewHeap(0)
	const n = 5000
	want := make([]uint64, n)
	for i := range want {
		k := r.Uint64() % 1000 // force duplicates
		want[i] = k
		h.Push(pq.Item{Key: k, Value: uint64(i)})
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := 0; i < n; i++ {
		it, ok := h.Pop()
		if !ok {
			t.Fatalf("heap empty after %d pops, want %d", i, n)
		}
		if it.Key != want[i] {
			t.Fatalf("pop %d = key %d, want %d", i, it.Key, want[i])
		}
	}
	if h.Len() != 0 {
		t.Fatal("heap not empty after draining")
	}
}

func TestHeapMinMatchesPop(t *testing.T) {
	r := rng.New(2)
	var h Heap
	for i := 0; i < 1000; i++ {
		h.Push(pq.Item{Key: r.Uint64() % 100})
	}
	for h.Len() > 0 {
		m, _ := h.Min()
		p, _ := h.Pop()
		if m != p {
			t.Fatalf("Min %v != Pop %v", m, p)
		}
	}
}

func TestHeapInvariantProperty(t *testing.T) {
	if err := quick.Check(func(keys []uint16, popEvery uint8) bool {
		var h Heap
		interval := int(popEvery%7) + 1
		for i, k := range keys {
			h.Push(pq.Item{Key: uint64(k), Value: uint64(i)})
			if i%interval == 0 {
				h.Pop()
			}
			if !h.invariantOK() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapClear(t *testing.T) {
	var h Heap
	h.Push(pq.Item{Key: 1})
	h.Clear()
	if h.Len() != 0 {
		t.Fatal("Clear did not empty heap")
	}
	h.Push(pq.Item{Key: 2})
	if it, ok := h.Pop(); !ok || it.Key != 2 {
		t.Fatal("heap unusable after Clear")
	}
}

func TestHeapValuesTravelWithKeys(t *testing.T) {
	var h Heap
	h.Push(pq.Item{Key: 10, Value: 100})
	h.Push(pq.Item{Key: 5, Value: 50})
	h.Push(pq.Item{Key: 7, Value: 70})
	it, _ := h.Pop()
	if it.Key != 5 || it.Value != 50 {
		t.Fatalf("got %+v", it)
	}
}

func TestGlobalLockSequential(t *testing.T) {
	q := NewGlobalLock()
	if q.Name() != "globallock" {
		t.Fatalf("name = %q", q.Name())
	}
	h := q.Handle()
	if _, _, ok := h.DeleteMin(); ok {
		t.Fatal("DeleteMin on empty queue returned ok")
	}
	h.Insert(3, 30)
	h.Insert(1, 10)
	h.Insert(2, 20)
	if k, v, ok := q.PeekMin(); !ok || k != 1 || v != 10 {
		t.Fatalf("PeekMin = %d,%d,%v", k, v, ok)
	}
	for want := uint64(1); want <= 3; want++ {
		k, v, ok := h.DeleteMin()
		if !ok || k != want || v != want*10 {
			t.Fatalf("DeleteMin = %d,%d,%v want key %d", k, v, ok, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

func TestGlobalLockStrictOrderUnderConcurrency(t *testing.T) {
	// GlobalLock must never lose or duplicate items, and a post-hoc drain
	// must produce exactly the inserted multiset.
	q := NewGlobalLock()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	inserted := make([][]uint64, workers)
	deleted := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.Handle()
			r := rng.New(uint64(w) + 1)
			for i := 0; i < perWorker; i++ {
				k := r.Uint64() % 10000
				h.Insert(k, k)
				inserted[w] = append(inserted[w], k)
				if i%2 == 1 {
					if k, _, ok := h.DeleteMin(); ok {
						deleted[w] = append(deleted[w], k)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var all, out []uint64
	for w := 0; w < workers; w++ {
		all = append(all, inserted[w]...)
		out = append(out, deleted[w]...)
	}
	h := q.Handle()
	for {
		k, _, ok := h.DeleteMin()
		if !ok {
			break
		}
		out = append(out, k)
	}
	if len(out) != len(all) {
		t.Fatalf("drained %d items, inserted %d", len(out), len(all))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	for i := range all {
		if all[i] != out[i] {
			t.Fatalf("multiset mismatch at %d: %d vs %d", i, all[i], out[i])
		}
	}
}

// batchHeap is the batch surface of GlobalLock's binary Heap, which moves
// a batch call through PushN and PopN; quadBatch gives the 4-ary heap the
// same surface, so the tests and the kernel below run both heaps alike.
type batchHeap interface {
	PushN([]pq.Item)
	PopN([]pq.Item, int) []pq.Item
	Len() int
}

// quadBatch is a QuadHeap moving batches one Push and one Pop at a time,
// as a MultiQueue sub-queue does.
type quadBatch struct{ QuadHeap }

func (h *quadBatch) PushN(its []pq.Item) {
	for _, it := range its {
		h.Push(it)
	}
}

func (h *quadBatch) PopN(dst []pq.Item, max int) []pq.Item {
	for ; max > 0; max-- {
		it, ok := h.Pop()
		if !ok {
			break
		}
		dst = append(dst, it)
	}
	return dst
}

// substrates lists both heaps of the package.
var substrates = []struct {
	name string
	mk   func() batchHeap
}{
	{"binary", func() batchHeap { return &Heap{} }},
	{"4ary", func() batchHeap { return &quadBatch{} }},
}

// TestPopN covers the batch push and pop on both heaps: ascending order,
// partial batches, batches past Len and reuse of dst.
func TestPopN(t *testing.T) {
	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			h := sub.mk()
			r := rng.New(17)
			in := make([]pq.Item, 100)
			for i := range in {
				in[i] = pq.Item{Key: r.Uint64() % 1000, Value: uint64(i)}
			}
			h.PushN(in[:37])
			h.PushN(in[37:])
			if h.Len() != 100 {
				t.Fatalf("PushN of 100 items left Len %d", h.Len())
			}
			got := h.PopN(nil, 10)
			if len(got) != 10 || h.Len() != 90 {
				t.Fatalf("PopN(10) returned %d items, %d remain", len(got), h.Len())
			}
			prev := uint64(0)
			for i, it := range got {
				if it.Key < prev {
					t.Fatalf("batch not ascending at %d: %d < %d", i, it.Key, prev)
				}
				prev = it.Key
			}
			rest := h.PopN(got[:0], 1000) // oversized batch drains; dst reused
			if len(rest) != 90 || h.Len() != 0 {
				t.Fatalf("draining PopN returned %d items, %d remain", len(rest), h.Len())
			}
			if out := h.PopN(nil, 5); len(out) != 0 {
				t.Fatalf("PopN on empty heap returned %d items", len(out))
			}
		})
	}
}

// sinkItems keeps the benchmark's pops observable to the compiler.
var sinkItems []pq.Item

// BenchmarkSubHeap times both heaps at the shapes MultiQueue sub-heaps take
// in bench/'s in-process workloads, which serve multiq-s4-b8 to two
// handles: 8 sub-heaps (c = 4 per handle) sharing fig4a's 10^6-item
// prefill of uniform 32-bit keys, and 8 sub-heaps of 250k ascending keys,
// split-asc's drift-upward keys in heaps that overflow a 2 MiB L2. One op
// is one batch of 8 pushed into a random heap and one batch of 8 popped
// from another, as one InsertN and one DeleteMinN move. Heaps of 1k items,
// which fit in L1, hide the cache behaviour the two heaps differ in.
//
// The ops are timed right after the prefill, before the hold-model drift
// of uniform keys sets in (the kept keys becoming the old, large ones,
// most new keys landing below them); a sub-queue past that drift splits
// its keys between two 4-ary heaps, which multiq's BenchmarkSubqueue
// times.
func BenchmarkSubHeap(b *testing.B) {
	const heaps, batch = 8, 8
	for _, shape := range []struct {
		name string
		dist keys.Distribution
		size int // items per heap
	}{
		{"uniform32-125k", keys.Uniform32, 125_000},
		{"ascending-250k", keys.Ascending, 250_000},
	} {
		for _, sub := range substrates {
			b.Run(shape.name+"/"+sub.name, func(b *testing.B) {
				r := rng.New(1)
				gen := keys.NewGenerator(shape.dist, r)
				hs := make([]batchHeap, heaps)
				for i := range hs {
					hs[i] = sub.mk()
				}
				in := make([]pq.Item, batch)
				fill := func() {
					for i := range in {
						in[i] = pq.Item{Key: gen.Next()}
					}
				}
				for i := 0; i < shape.size/batch; i++ {
					for _, h := range hs {
						fill()
						h.PushN(in)
					}
				}
				out := make([]pq.Item, 0, batch)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fill()
					hs[r.Uintn(heaps)].PushN(in)
					out = hs[r.Uintn(heaps)].PopN(out[:0], batch)
				}
				b.StopTimer()
				sinkItems = out
			})
		}
	}
}
