// Benchmarks of the paper's design choices and of this repository's
// acceptance cells:
//
//   - BenchmarkAblation* — design-choice sweeps called out in DESIGN.md §10.
//   - BenchmarkMultiQueueEngineered, BenchmarkEngineeredGrid, BenchmarkKLSM*,
//     BenchmarkSkiplistPQ, BenchmarkLindenInsertDeleteMin — acceptance cells
//     and allocation microbenches.
//   - BenchmarkHandleChurn — the handle pool under goroutine churn.
//
// The paper's figure and table cells themselves run through cmd/pqbench.
// Sub-benchmarks are <queue>/t<threads>. Benchmark prefill is reduced to
// 100k items (vs the CLI's 10^6) to keep `go test -bench=.` tractable.
package cpq_test

import (
	"fmt"
	"sync"
	"testing"

	"cpq"
	"cpq/internal/cli"
	"cpq/internal/harness"
	"cpq/internal/keys"
	"cpq/internal/pq"
	"cpq/internal/rng"
	"cpq/internal/workload"
)

const benchPrefill = 100_000

var benchThreads = []int{1, 4}

func factory(name string) func(int) pq.Queue {
	return func(t int) pq.Queue {
		q, err := cpq.NewQueue(name, cpq.Options{Threads: t})
		if err != nil {
			panic(err)
		}
		return q
	}
}

// benchThroughputCell drives b.N operations split across p workers over a
// prefilled queue — the benchmark loop of the paper's throughput benchmark
// with testing.B deciding the operation count.
func benchThroughputCell(b *testing.B, newQueue func(int) pq.Queue, p int, wl workload.Kind, kd keys.Distribution) {
	q := newQueue(p)
	harness.PrefillQueue(q, harness.Config{
		NewQueue: newQueue, Threads: p, Workload: wl, KeyDist: kd,
		Prefill: benchPrefill, Seed: 1,
	})
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		n := b.N / p
		if w < b.N%p {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			h := q.Handle()
			r := rng.New(uint64(w)*0x6a09e667f3bcc909 + 1)
			gen := keys.NewGenerator(kd, r)
			policy := workload.ForWorker(wl, w, p, 0.5, r)
			for i := 0; i < n; i++ {
				if policy.Next() == workload.Insert {
					h.Insert(gen.Next(), uint64(w))
				} else {
					h.DeleteMin()
				}
			}
		}(w, n)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/1e6/b.Elapsed().Seconds(), "MOps/s")
}

// --- Ablations (design-choice benches from DESIGN.md §10) -----------------

// AblationKLSMRelaxation sweeps the k-LSM's k, including k=16 which the
// paper says behaves like the Lindén queue, on the headline cell (4a).
func BenchmarkAblationKLSMRelaxation(b *testing.B) {
	for _, k := range []int{16, 128, 256, 4096} {
		for _, p := range benchThreads {
			b.Run(fmt.Sprintf("k%d/t%d", k, p), func(b *testing.B) {
				benchThroughputCell(b, func(int) pq.Queue { return cpq.NewKLSM(k) },
					p, workload.Uniform, keys.Uniform32)
			})
		}
	}
}

// AblationKLSMComponents benchmarks the k-LSM's components standalone: the
// DLSM (thread-local + spy) and the SLSM (global, relaxation 256).
func BenchmarkAblationKLSMComponents(b *testing.B) {
	for _, name := range []string{"dlsm", "slsm256", "klsm256"} {
		for _, p := range benchThreads {
			b.Run(fmt.Sprintf("%s/t%d", name, p), func(b *testing.B) {
				benchThroughputCell(b, factory(name), p, workload.Uniform, keys.Uniform32)
			})
		}
	}
}

// AblationMultiQueueC sweeps the MultiQueue's queues-per-thread factor
// (the paper fixes c=4).
func BenchmarkAblationMultiQueueC(b *testing.B) {
	for _, c := range []int{1, 2, 4, 8} {
		for _, p := range benchThreads {
			b.Run(fmt.Sprintf("c%d/t%d", c, p), func(b *testing.B) {
				benchThroughputCell(b, func(t int) pq.Queue { return cpq.NewMultiQueue(c, t) },
					p, workload.Uniform, keys.Uniform32)
			})
		}
	}
}

// AblationLindenBound sweeps the Lindén queue's physical-deletion batching
// threshold, its central design parameter.
func BenchmarkAblationLindenBound(b *testing.B) {
	for _, bound := range []int{1, 32, 128, 512} {
		for _, p := range benchThreads {
			b.Run(fmt.Sprintf("bound%d/t%d", bound, p), func(b *testing.B) {
				benchThroughputCell(b, func(int) pq.Queue { return cpq.NewLindenBound(bound) },
					p, workload.Uniform, keys.Uniform32)
			})
		}
	}
}

// AblationSprayVsScan compares the SprayList against the Shavit-Lotan queue
// on the same skiplist substrate: the only difference is the sprayed vs.
// strict head scan in DeleteMin, isolating the spray walk's effect.
func BenchmarkAblationSprayVsScan(b *testing.B) {
	for _, name := range []string{"spray", "lotan"} {
		for _, p := range benchThreads {
			b.Run(fmt.Sprintf("%s/t%d", name, p), func(b *testing.B) {
				benchThroughputCell(b, factory(name), p, workload.Uniform, keys.Uniform32)
			})
		}
	}
}

// --- Engineered MultiQueue (Williams-Sanders stickiness + buffers) -------

// engineeredSet is the engineered-MultiQueue comparison set: the seed
// MultiQueue, the engineered variant at the default tuning, and the paper's
// strongest k-LSM.
var engineeredSet = []string{"multiq", "multiq-s4-b8", "klsm4096"}

// BenchmarkMultiQueueEngineered is the acceptance benchmark for the
// engineered MultiQueue: the comparison set at 8 threads on the headline
// cell (uniform workload, uniform 32-bit keys — figure 4a). Sub-benchmarks
// are benchstat-comparable across queues via the reported MOps/s metric:
//
//	go test -bench=MultiQueueEngineered -benchtime=2s -count=5 | benchstat -
func BenchmarkMultiQueueEngineered(b *testing.B) {
	for _, name := range engineeredSet {
		b.Run(fmt.Sprintf("%s/t8", name), func(b *testing.B) {
			benchThroughputCell(b, factory(name), 8, workload.Uniform, keys.Uniform32)
		})
	}
}

// BenchmarkEngineeredGrid sweeps the engineered comparison set across the
// paper's full workload × key-distribution grid (the cells of Figures 4
// and 8), so the stickiness/buffering trade-off is visible beyond the
// headline cell.
func BenchmarkEngineeredGrid(b *testing.B) {
	for _, cell := range cli.Figures() {
		for _, name := range engineeredSet {
			for _, p := range benchThreads {
				b.Run(fmt.Sprintf("%s/%s/t%d", cell.ID, name, p), func(b *testing.B) {
					benchThroughputCell(b, factory(name), p, cell.Workload, cell.KeyDist)
				})
			}
		}
	}
}

// BenchmarkAblationMultiQueueStickBuf sweeps the engineered variant's two
// knobs independently on the headline cell: stickiness with buffering off,
// buffering with stickiness off, and both combined.
func BenchmarkAblationMultiQueueStickBuf(b *testing.B) {
	for _, tc := range []struct{ s, bsz int }{
		{1, 1}, {4, 1}, {8, 1}, {1, 8}, {1, 16}, {4, 8}, {8, 16},
	} {
		for _, p := range benchThreads {
			b.Run(fmt.Sprintf("s%d-b%d/t%d", tc.s, tc.bsz, p), func(b *testing.B) {
				benchThroughputCell(b, func(t int) pq.Queue {
					return cpq.NewMultiQueueEngineered(4, t, tc.s, tc.bsz)
				}, p, workload.Uniform, keys.Uniform32)
			})
		}
	}
}

// --- k-LSM hot path (pooled blocks, scratch merges, pivot reuse) ---------

// klsmSet is the k-LSM acceptance comparison set: the paper's three
// relaxation settings on the headline cell.
var klsmSet = []string{"klsm128", "klsm256", "klsm4096"}

// BenchmarkKLSM is the acceptance benchmark for the allocation-lean k-LSM:
// the paper's k sweep at 8 threads on the headline cell (uniform workload,
// uniform 32-bit keys — figure 4a). Benchstat-comparable across commits:
//
//	go test -bench='^BenchmarkKLSM$' -benchmem -benchtime=1s -count=3 | benchstat -
func BenchmarkKLSM(b *testing.B) {
	for _, name := range klsmSet {
		b.Run(fmt.Sprintf("%s/t8", name), func(b *testing.B) {
			benchThroughputCell(b, factory(name), 8, workload.Uniform, keys.Uniform32)
		})
	}
}

// BenchmarkKLSMInsertDeleteMin is the single-threaded insert+delete-min
// microbenchmark behind the allocs/op acceptance target: one handle
// alternating Insert and DeleteMin at steady state, so the allocs/op column
// (-benchmem) isolates the k-LSM's per-operation allocation behaviour from
// scheduler and contention noise.
func BenchmarkKLSMInsertDeleteMin(b *testing.B) {
	for _, k := range []int{128, 4096} {
		b.Run(fmt.Sprintf("klsm%d", k), func(b *testing.B) {
			q := cpq.NewKLSM(k)
			h := q.Handle()
			r := rng.New(1)
			for i := 0; i < 3*k; i++ { // reach steady state before measuring
				h.Insert(r.Uint64()&0xffffffff, 0)
				h.DeleteMin()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Insert(r.Uint64()&0xffffffff, 0)
				h.DeleteMin()
			}
		})
	}
}

// BenchmarkSkiplistPQ is the acceptance benchmark for the arena-backed
// packed-word skiplist substrate: the fig-4a headline cell (uniform
// workload, uniform 32-bit keys) at 8 threads for the three skiplist-based
// queues. Benchstat-comparable across commits:
//
//	go test -bench='^BenchmarkSkiplistPQ$' -benchmem -benchtime=1s -count=3 | benchstat -
func BenchmarkSkiplistPQ(b *testing.B) {
	for _, name := range []string{"linden", "spray", "lotan"} {
		b.Run(fmt.Sprintf("%s/t8", name), func(b *testing.B) {
			benchThroughputCell(b, factory(name), 8, workload.Uniform, keys.Uniform32)
		})
	}
}

// BenchmarkLindenInsertDeleteMin is the single-threaded insert+delete-min
// microbenchmark behind the skiplist allocs/op acceptance target: one
// handle alternating Insert and DeleteMin over a live working set, so the
// allocs/op column (-benchmem) isolates the substrate's per-operation
// allocation behaviour from scheduler and contention noise. The working
// set matters: alternating on a near-empty queue is a known Lindén
// pathology (each insert splices in front of the dead prefix, so the
// restructure trigger never fires and the dead chain grows without bound)
// and measures that degenerate walk, not the substrate. Expected: 0
// allocs/op on DeleteMin and the rare slab refill on Insert (<=0.01
// allocs/op for the pair).
func BenchmarkLindenInsertDeleteMin(b *testing.B) {
	q := factory("linden")(1)
	h := q.Handle()
	r := rng.New(1)
	for i := 0; i < 8192; i++ { // live working set
		h.Insert(r.Uint64()&0xffffffff, 0)
	}
	for i := 0; i < 4096; i++ { // reach steady state before measuring
		h.Insert(r.Uint64()&0xffffffff, 0)
		h.DeleteMin()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Insert(r.Uint64()&0xffffffff, 0)
		h.DeleteMin()
	}
}

// AblationExtensions covers the appendix-D extension queues on the
// headline cell for completeness.
func BenchmarkAblationExtensions(b *testing.B) {
	for _, name := range []string{"hunt", "mound", "lotan", "cbpq", "locksl"} {
		for _, p := range benchThreads {
			b.Run(fmt.Sprintf("%s/t%d", name, p), func(b *testing.B) {
				benchThroughputCell(b, factory(name), p, workload.Uniform, keys.Uniform32)
			})
		}
	}
}

// benchHandleChurn drives the goroutine-churn benchmark: b.N operations
// spread over short-lived goroutines (burst of 64 ops each) across 8
// spawn-join slots, with the handle lifecycle under test — the elastic
// pq.Pool versus the naive mutex-guarded free list. The MOps/s metric
// includes checkout/checkin cost; the handles metric shows how many real
// handles backed the churn.
func benchHandleChurn(b *testing.B, name string, naive bool) {
	const burst, slots = 64, 8
	g := b.N/burst + 1
	if g < slots {
		g = slots
	}
	st := harness.RunChurn(harness.ChurnConfig{
		NewQueue:   factory(name),
		Slots:      slots,
		Goroutines: g,
		BurstOps:   burst,
		Prefill:    benchPrefill,
		Naive:      naive,
		Seed:       1,
	})
	b.StopTimer()
	b.ReportMetric(st.MOps(), "MOps/s")
	b.ReportMetric(float64(st.HandlesCreated), "handles")
}

// BenchmarkHandleChurn compares the pooled lifecycle against the naive
// baseline on the two acceptance queues (see EXPERIMENTS.md §churn).
func BenchmarkHandleChurn(b *testing.B) {
	for _, name := range []string{"klsm4096", "multiq"} {
		for _, mode := range []struct {
			label string
			naive bool
		}{{"pool", false}, {"naive", true}} {
			b.Run(fmt.Sprintf("%s/%s", name, mode.label), func(b *testing.B) {
				benchHandleChurn(b, name, mode.naive)
			})
		}
	}
}
