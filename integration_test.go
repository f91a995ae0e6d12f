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
// histogram accounts for every deletion, and no deletion of a queue with a
// claimed bound has a definite rank above it (0 for the strict queues).
func TestQualityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("quality matrix skipped in -short")
	}
	const threads = 2
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
				Threads:      threads,
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
			// The prefill handle counts towards P with the workers.
			bound, kind := quality.ClaimedBound(name, threads+1)
			if v := quality.ViolationsAbove(res, bound); kind != quality.BoundNone && v > 0 {
				t.Fatalf("%s: %d of %d deletions had a definite rank above its %s bound %d (max %d)",
					name, v, res.Deletions, kind, bound, res.MaxDefinite)
			}
		})
	}
}

// TestRunOpsMatchesRunSemantics: an op-counted run (the latency mode) must
// produce the same kind of accounting as a timed one.
func TestRunOpsMatchesRunSemantics(t *testing.T) {
	cfg := harness.Config{
		NewQueue: func(p int) pq.Queue { return NewGlobalLock() },
		Threads:  2,
		Workload: workload.Alternating,
		KeyDist:  keys.Uniform32,
		Prefill:  100,
		Ops:      500,
		Seed:     3,
	}
	res := harness.Run(cfg)
	if res.Ops != 1000 {
		t.Fatalf("op-counted Run Ops = %d", res.Ops)
	}
	if res.MOps() <= 0 {
		t.Fatal("non-positive MOps")
	}
}

// TestStrictPerWorkerMonotoneDrain: with deletions only, every worker of a
// strict queue must observe a non-decreasing key sequence — each DeleteMin
// returns the then-global minimum, which can only grow. This is the
// sharpest concurrent strictness check available without full
// linearizability checking. (hunt is strict here only because its deletion
// holds the root until the detached bottom item sits there; the published
// algorithm lets a concurrent deletion run past the detached item.)
func TestStrictPerWorkerMonotoneDrain(t *testing.T) {
	for _, name := range []string{"globallock", "linden", "lotan", "hunt", "mound", "cbpq", "locksl"} {
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
