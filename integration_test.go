package cpq

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cpq/internal/harness"
	"cpq/internal/keys"
	"cpq/internal/pq"
	"cpq/internal/quality"
	"cpq/internal/rng"
	"cpq/internal/workload"
)

// rngNew keeps the test body terse.
func rngNew(seed uint64) *rng.Xoroshiro { return rng.New(seed) }

// TestHarnessMatrix drives the throughput harness over every registered
// queue crossed with every workload and key distribution at a tiny scale:
// the full benchmark grid as an integration test. It asserts liveness (ops
// complete, the run terminates) and basic sanity of the results.
func TestHarnessMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is ~100 cells; skipped in -short")
	}
	for _, name := range Names() {
		for _, wl := range workload.All() {
			for _, kd := range []keys.Distribution{keys.Uniform32, keys.Uniform8, keys.Ascending, keys.HoldAscending} {
				name, wl, kd := name, wl, kd
				t.Run(name+"/"+wl.String()+"/"+kd.String(), func(t *testing.T) {
					res := harness.Run(harness.Config{
						NewQueue: func(p int) pq.Queue {
							q, err := NewQueue(name, Options{Threads: p})
							if err != nil {
								t.Fatal(err)
							}
							return q
						},
						Threads:  3,
						Duration: 10 * time.Millisecond,
						Workload: wl,
						KeyDist:  kd,
						Prefill:  2000,
						Seed:     7,
					})
					if res.Ops == 0 {
						t.Fatal("no operations completed")
					}
					if res.EmptyDeletes > res.Ops {
						t.Fatalf("empty deletes %d exceed ops %d", res.EmptyDeletes, res.Ops)
					}
				})
			}
		}
	}
}

// TestQualityMatrix runs the rank-error pipeline over every queue on the
// headline cell and checks structural properties of the result: the
// histogram accounts for every deletion, strict queues stay near zero, and
// relaxed queues respect (loosely) their advertised bounds.
func TestQualityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("quality matrix skipped in -short")
	}
	strictMax := map[string]float64{
		// Strict structures may show small nonzero means from the
		// stamping pessimism; anything beyond a few slots is a bug.
		"globallock": 0.01, "linden": 8, "lotan": 8, "hunt": 8, "mound": 8, "cbpq": 8, "locksl": 8,
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			res := quality.Run(quality.Config{
				NewQueue: func(p int) pq.Queue {
					q, err := NewQueue(name, Options{Threads: p})
					if err != nil {
						t.Fatal(err)
					}
					return q
				},
				Threads:      2,
				OpsPerThread: 4000,
				Workload:     workload.Uniform,
				KeyDist:      keys.Uniform32,
				Prefill:      4000,
				Seed:         11,
			})
			if res.Deletions == 0 {
				t.Fatal("no deletions replayed")
			}
			var histSum uint64
			for _, c := range res.Histogram {
				histSum += c
			}
			if histSum != res.Deletions {
				t.Fatalf("histogram sums to %d, deletions %d", histSum, res.Deletions)
			}
			if max, ok := strictMax[name]; ok && res.MeanRank > max {
				t.Fatalf("strict queue %s mean rank %.2f > %.2f", name, res.MeanRank, max)
			}
			if name == "klsm128" && res.MeanRank > 128*3 {
				t.Fatalf("klsm128 mean rank %.2f far beyond kP", res.MeanRank)
			}
		})
	}
}

// TestRunOpsMatchesRunSemantics: the latency-mode harness must produce the
// same kind of accounting as the duration-mode one.
func TestRunOpsMatchesRunSemantics(t *testing.T) {
	cfg := harness.Config{
		NewQueue: func(p int) pq.Queue { return NewGlobalLock() },
		Threads:  2,
		Workload: workload.Alternating,
		KeyDist:  keys.Uniform32,
		Prefill:  100,
		Seed:     3,
	}
	res := harness.RunOps(cfg, 500)
	if res.Ops != 1000 {
		t.Fatalf("RunOps Ops = %d", res.Ops)
	}
	if res.MOps() <= 0 {
		t.Fatal("non-positive MOps")
	}
}

// TestStrictPerWorkerMonotoneDrain: with deletions only, every worker of a
// strict queue must observe a non-decreasing key sequence — each DeleteMin
// returns the then-global minimum, which can only grow. This is the
// sharpest concurrent strictness check available without full
// linearizability checking. (hunt is excluded: its published algorithm
// admits transient inversions between a deletion's substitute placement
// and concurrent deletions, and is strict only at quiescence.)
func TestStrictPerWorkerMonotoneDrain(t *testing.T) {
	for _, name := range []string{"globallock", "linden", "lotan", "mound", "cbpq", "locksl"} {
		name := name
		t.Run(name, func(t *testing.T) {
			const n = 30000
			q, err := NewQueue(name, Options{Threads: 4})
			if err != nil {
				t.Fatal(err)
			}
			h := q.Handle()
			r := rngNew(5)
			for i := 0; i < n; i++ {
				h.Insert(r.Uint64()%1000000, 0)
			}
			const workers = 4
			var wg sync.WaitGroup
			errs := make(chan string, workers)
			var total atomic.Int64
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := q.Handle()
					var prev uint64
					first := true
					for {
						k, _, ok := h.DeleteMin()
						if !ok {
							return
						}
						total.Add(1)
						if !first && k < prev {
							errs <- fmt.Sprintf("worker %d: %d after %d", w, k, prev)
							return
						}
						prev, first = k, false
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatalf("per-worker drain regressed: %s", e)
			}
			if total.Load() != n {
				t.Fatalf("drained %d of %d", total.Load(), n)
			}
		})
	}
}
