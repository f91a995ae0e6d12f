// Benchmarks regenerating every figure and table of the paper's evaluation.
//
// Naming maps directly onto the paper:
//
//   - BenchmarkFig4a ... BenchmarkFig4h — the eight throughput panels of
//     Figure 4 (Figures 1-3 of the brief announcement are panels 4a, 4e,
//     4g); Figures 5-7 are the same panels on other machines and therefore
//     the same code. Reported metric: MOps/s (also derivable from ns/op).
//   - BenchmarkFig8a ... BenchmarkFig8c — the alternating-workload panels
//     of Figures 8/9.
//   - BenchmarkTable2a ... BenchmarkTable2h, BenchmarkTable5a-c — the rank
//     error tables (Table 1 = Table 2a); reported metrics: mean_rank and
//     stddev_rank.
//   - BenchmarkAblation* — design-choice sweeps called out in DESIGN.md.
//
// Sub-benchmarks are <queue>/t<threads>. Benchmark prefill is reduced to
// 100k items (vs the CLI's 10^6) to keep `go test -bench=.` tractable; use
// cmd/pqbench for paper-scale parameters.
package cpq_test

import (
	"fmt"
	"sync"
	"testing"

	"cpq"
	"cpq/internal/cli"
	"cpq/internal/harness"
	"cpq/internal/keys"
	"cpq/internal/multiq"
	"cpq/internal/pq"
	"cpq/internal/quality"
	"cpq/internal/rng"
	"cpq/internal/seqheap"
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

func benchFigure(b *testing.B, wl workload.Kind, kd keys.Distribution) {
	for _, name := range cpq.PaperNames() {
		for _, p := range benchThreads {
			b.Run(fmt.Sprintf("%s/t%d", name, p), func(b *testing.B) {
				benchThroughputCell(b, factory(name), p, wl, kd)
			})
		}
	}
}

// Figure 4 (mars; = Figures 5, 6, 7 on saturn/ceres/pluto).
// Figure 1 of the brief announcement is Figure 4a.
func BenchmarkFig4a(b *testing.B) { benchFigure(b, workload.Uniform, keys.Uniform32) }
func BenchmarkFig4b(b *testing.B) { benchFigure(b, workload.Uniform, keys.Ascending) }
func BenchmarkFig4c(b *testing.B) { benchFigure(b, workload.Uniform, keys.Descending) }
func BenchmarkFig4d(b *testing.B) { benchFigure(b, workload.Split, keys.Uniform32) }

// Figure 2 of the brief announcement is Figure 4e.
func BenchmarkFig4e(b *testing.B) { benchFigure(b, workload.Split, keys.Ascending) }
func BenchmarkFig4f(b *testing.B) { benchFigure(b, workload.Split, keys.Descending) }

// Figure 3 of the brief announcement is Figure 4g.
func BenchmarkFig4g(b *testing.B) { benchFigure(b, workload.Uniform, keys.Uniform8) }
func BenchmarkFig4h(b *testing.B) { benchFigure(b, workload.Uniform, keys.Uniform16) }

// Figures 8/9: alternating workload.
func BenchmarkFig8a(b *testing.B) { benchFigure(b, workload.Alternating, keys.Uniform32) }
func BenchmarkFig8b(b *testing.B) { benchFigure(b, workload.Alternating, keys.Ascending) }
func BenchmarkFig8c(b *testing.B) { benchFigure(b, workload.Alternating, keys.Descending) }

// benchQualityCell runs the rank-error benchmark and reports rank metrics.
// b.N scales the per-thread operation count.
func benchQualityCell(b *testing.B, name string, p int, wl workload.Kind, kd keys.Distribution) {
	ops := b.N
	if ops < 2000 {
		ops = 2000 // enough deletions for a meaningful rank distribution
	}
	res := quality.Run(quality.Config{
		NewQueue:     factory(name),
		Threads:      p,
		OpsPerThread: ops / p,
		Workload:     wl,
		KeyDist:      kd,
		Prefill:      20_000,
		Seed:         1,
	})
	b.ReportMetric(res.MeanRank, "mean_rank")
	b.ReportMetric(res.StddevRank, "stddev_rank")
}

func benchTable(b *testing.B, wl workload.Kind, kd keys.Distribution) {
	for _, name := range cpq.PaperNames() {
		for _, p := range []int{2, 4, 8} { // the paper's quality thread counts
			b.Run(fmt.Sprintf("%s/t%d", name, p), func(b *testing.B) {
				benchQualityCell(b, name, p, wl, kd)
			})
		}
	}
}

// Table 2 (mars; = Tables 3, 4 on saturn/ceres). Table 1 is Table 2a.
func BenchmarkTable2a(b *testing.B) { benchTable(b, workload.Uniform, keys.Uniform32) }
func BenchmarkTable2b(b *testing.B) { benchTable(b, workload.Uniform, keys.Ascending) }
func BenchmarkTable2c(b *testing.B) { benchTable(b, workload.Uniform, keys.Descending) }
func BenchmarkTable2d(b *testing.B) { benchTable(b, workload.Split, keys.Uniform32) }
func BenchmarkTable2e(b *testing.B) { benchTable(b, workload.Split, keys.Ascending) }
func BenchmarkTable2f(b *testing.B) { benchTable(b, workload.Split, keys.Descending) }
func BenchmarkTable2g(b *testing.B) { benchTable(b, workload.Uniform, keys.Uniform8) }
func BenchmarkTable2h(b *testing.B) { benchTable(b, workload.Uniform, keys.Uniform16) }

// Table 5: rank error under the alternating workload.
func BenchmarkTable5a(b *testing.B) { benchTable(b, workload.Alternating, keys.Uniform32) }
func BenchmarkTable5b(b *testing.B) { benchTable(b, workload.Alternating, keys.Ascending) }
func BenchmarkTable5c(b *testing.B) { benchTable(b, workload.Alternating, keys.Descending) }

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

// AblationMultiQueueSubHeap compares the MultiQueue's sequential sub-heaps
// (Larkin-Sen-Tarjan style sequential-heap engineering): the paper's binary
// heap, the default 4-ary heap and a pairing heap.
func BenchmarkAblationMultiQueueSubHeap(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func(t int) pq.Queue
	}{
		{"binary", func(t int) pq.Queue {
			return multiq.NewWith(4, t, func() multiq.SubHeap { return &seqheap.Heap{} })
		}},
		{"4ary", func(t int) pq.Queue { return cpq.NewMultiQueue(4, t) }},
		{"pairing", func(t int) pq.Queue { return cpq.NewMultiQueuePairing(4, t) }},
	} {
		for _, p := range benchThreads {
			b.Run(fmt.Sprintf("%s/t%d", tc.name, p), func(b *testing.B) {
				benchThroughputCell(b, tc.mk, p, workload.Uniform, keys.Uniform32)
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
