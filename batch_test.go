package cpq

import (
	"container/heap"
	"testing"

	"cpq/internal/rng"
)

// Tests for the batch-first API (DESIGN.md §4c): allocation gates on the
// native batch hot paths, a batch/scalar interleaving oracle over the whole
// registry, and a fuzz target checking that arbitrary batch+scalar mixes
// conserve items. The scalar alloc gates live next to their substrates
// (internal/*/alloc_test.go); these cover the InsertN/DeleteMinN entry
// points through the public registry surface.

const batchValueTag = 0x9e3779b97f4a7c15

// warmBatch returns a handle warmed past arena/pool/heap-capacity
// transients with a settled batch cadence, plus reusable scratch buffers.
func warmBatch(t *testing.T, name string, width int) (Handle, []KV, []KV, *rng.Xoroshiro) {
	t.Helper()
	q, err := NewQueue(name, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := q.Handle()
	r := rng.New(42)
	kvs := make([]KV, width)
	dst := make([]KV, width)
	for i := 0; i < 2048/width; i++ {
		for j := range kvs {
			kvs[j] = KV{Key: r.Uint64() & 0xffff}
		}
		InsertN(h, kvs)
	}
	for i := 0; i < 4096/width; i++ {
		for j := range kvs {
			kvs[j] = KV{Key: r.Uint64() & 0xffff}
		}
		InsertN(h, kvs)
		DeleteMinN(h, dst, width)
	}
	return h, kvs, dst, r
}

// TestBatchAllocGates pins the allocation behaviour of the native batch
// paths at width 8: a steady-state InsertN+DeleteMinN pair must amortize to
// zero allocations per ITEM (the occasional slab refill or k-LSM merge is
// allowed, bounded per batch CALL). slsm256 is exempt — its shared-only
// design allocates a published block list per mutation by construction.
func TestBatchAllocGates(t *testing.T) {
	const width = 8
	cases := []struct {
		name string
		// max allocs per batch call (width items) for the insert and the
		// delete side; 0 means strictly allocation-free.
		insBound, delBound float64
	}{
		{"klsm128", 1.0, 1.0}, // block merges amortize across calls
		{"klsm4096", 1.0, 1.0},
		{"multiq", 0, 0},
		{"multiq-s4-b8", 0, 0},
		{"globallock", 0, 0},
		{"linden", 1.0, 1.0}, // slab refills; restructure find is free
		{"spray", 1.0, 0},
		{"lotan", 1.0, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			h, kvs, dst, r := warmBatch(t, tc.name, width)
			ins := testing.AllocsPerRun(1000, func() {
				for j := range kvs {
					kvs[j] = KV{Key: r.Uint64() & 0xffff}
				}
				InsertN(h, kvs)
			})
			if ins > tc.insBound {
				t.Errorf("InsertN(%d) allocates %.3f allocs/call at steady state, want <= %.1f",
					width, ins, tc.insBound)
			}
			// Stock enough items that the measured deletes never hit empty.
			for i := 0; i < 1100; i++ {
				for j := range kvs {
					kvs[j] = KV{Key: r.Uint64() & 0xffff}
				}
				InsertN(h, kvs)
			}
			del := testing.AllocsPerRun(1000, func() {
				if DeleteMinN(h, dst, width) == 0 {
					t.Fatal("queue ran empty mid-measurement")
				}
			})
			if del > tc.delBound {
				t.Errorf("DeleteMinN(%d) allocates %.3f allocs/call at steady state, want <= %.1f",
					width, del, tc.delBound)
			}
		})
	}
}

// TestBatchScalarInterleavingOracle interleaves batch and scalar operations
// on every registry queue (native batch paths and the generic fallback
// alike) against a reference heap: items are conserved with full key/value
// fidelity, and on the strict queues every batch delete returns exactly the
// keys the oracle would pop.
func TestBatchScalarInterleavingOracle(t *testing.T) {
	strict := map[string]bool{}
	for _, n := range strictQueues {
		strict[n] = true
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			q, err := NewQueue(name, Options{Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			h := q.Handle()
			var oracle oracleHeap
			live := map[uint64]int{} // key -> live count (conservation)
			r := rng.New(777)
			kvs := make([]KV, 8)
			dst := make([]KV, 8)
			take := func(k, v uint64) {
				if v != k^batchValueTag {
					t.Fatalf("value corrupted: key %d value %#x", k, v)
				}
				if live[k] == 0 {
					t.Fatalf("deleted key %d more times than inserted", k)
				}
				live[k]--
			}
			for i := 0; i < 600; i++ {
				switch i % 4 {
				case 0: // batch insert
					for j := range kvs {
						k := r.Uint64() & 0xfff
						kvs[j] = KV{Key: k, Value: k ^ batchValueTag}
						live[k]++
						heap.Push(&oracle, Item{Key: k})
					}
					InsertN(h, kvs) // may reorder kvs in place
				case 1: // scalar insert
					k := r.Uint64() & 0xfff
					live[k]++
					heap.Push(&oracle, Item{Key: k})
					h.Insert(k, k^batchValueTag)
				case 2: // batch delete
					got := DeleteMinN(h, dst, 8)
					for j := 0; j < got; j++ {
						take(dst[j].Key, dst[j].Value)
						if strict[name] {
							want := heap.Pop(&oracle).(Item).Key
							if dst[j].Key != want {
								t.Fatalf("batch delete %d returned key %d, oracle pops %d",
									j, dst[j].Key, want)
							}
						} else {
							removeKey(&oracle, dst[j].Key)
						}
					}
				case 3: // scalar delete
					if k, v, ok := h.DeleteMin(); ok {
						take(k, v)
						if strict[name] {
							want := heap.Pop(&oracle).(Item).Key
							if k != want {
								t.Fatalf("scalar delete returned key %d, oracle pops %d", k, want)
							}
						} else {
							removeKey(&oracle, k)
						}
					}
				}
			}
			// Drain (batch and scalar mixed) and check conservation.
			for {
				if got := DeleteMinN(h, dst, 8); got > 0 {
					for j := 0; j < got; j++ {
						take(dst[j].Key, dst[j].Value)
					}
					continue
				}
				k, v, ok := h.DeleteMin()
				if !ok {
					break
				}
				take(k, v)
			}
			for k, n := range live {
				if n != 0 {
					t.Fatalf("conservation violated: key %d has %d undeleted copies", k, n)
				}
			}
		})
	}
}

// FuzzBatchScalarConservation drives one queue through an arbitrary mix of
// batch and scalar operations decoded from the fuzz input and checks that
// no item is lost, duplicated, or returned with a foreign value.
func FuzzBatchScalarConservation(f *testing.F) {
	f.Add(uint64(1), []byte{0x00, 0x41, 0x82, 0xc3, 0x10, 0x52, 0x93, 0xd4})
	f.Add(uint64(7), []byte{0xff, 0xfe, 0x01, 0x02, 0x80, 0x81, 0x40, 0x00, 0xaa})
	f.Add(uint64(12), []byte{0x03, 0x03, 0x03, 0x43, 0x43, 0x83, 0x83, 0xc3, 0xc3})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		names := Names()
		name := names[seed%uint64(len(names))]
		q, err := NewQueue(name, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		h := q.Handle()
		if len(ops) > 512 {
			ops = ops[:512]
		}
		live := map[uint64]int{}
		r := rng.New(seed | 1)
		kvs := make([]KV, 16)
		dst := make([]KV, 16)
		take := func(k, v uint64) {
			if v != k^batchValueTag {
				t.Fatalf("%s: value corrupted: key %d value %#x", name, k, v)
			}
			if live[k] == 0 {
				t.Fatalf("%s: deleted key %d more times than inserted", name, k)
			}
			live[k]--
		}
		for _, b := range ops {
			width := int(b&0x3f)%len(kvs) + 1 // 1..16
			switch b >> 6 {
			case 0: // batch insert of `width` items
				for j := 0; j < width; j++ {
					k := r.Uint64() & 0x3ff
					kvs[j] = KV{Key: k, Value: k ^ batchValueTag}
					live[k]++
				}
				InsertN(h, kvs[:width])
			case 1: // scalar insert
				k := r.Uint64() & 0x3ff
				live[k]++
				h.Insert(k, k^batchValueTag)
			case 2: // batch delete of up to `width` items
				got := DeleteMinN(h, dst, width)
				for j := 0; j < got; j++ {
					take(dst[j].Key, dst[j].Value)
				}
			case 3: // scalar delete
				if k, v, ok := h.DeleteMin(); ok {
					take(k, v)
				}
			}
		}
		for {
			if got := DeleteMinN(h, dst, len(dst)); got > 0 {
				for j := 0; j < got; j++ {
					take(dst[j].Key, dst[j].Value)
				}
				continue
			}
			k, v, ok := h.DeleteMin()
			if !ok {
				break
			}
			take(k, v)
		}
		for k, n := range live {
			if n != 0 {
				t.Fatalf("%s: conservation violated: key %d has %d undeleted copies", name, k, n)
			}
		}
	})
}
