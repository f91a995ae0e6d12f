package harness

import (
	"fmt"
	"testing"
	"time"

	"cpq/internal/keys"
	"cpq/internal/multiq"
	"cpq/internal/pq"
	"cpq/internal/seqheap"
	"cpq/internal/workload"
)

func glFactory(threads int) pq.Queue { return seqheap.NewGlobalLock() }

func quickCfg(threads int) Config {
	return Config{
		NewQueue: glFactory,
		Threads:  threads,
		Duration: 30 * time.Millisecond,
		Workload: workload.Uniform,
		KeyDist:  keys.Uniform32,
		Prefill:  1000,
		Seed:     42,
	}
}

func TestRunProducesOps(t *testing.T) {
	res := Run(quickCfg(2))
	if res.Ops == 0 {
		t.Fatal("no operations recorded")
	}
	if res.MOps() <= 0 {
		t.Fatal("non-positive throughput")
	}
	if len(res.PerThread) != 2 {
		t.Fatalf("PerThread has %d entries", len(res.PerThread))
	}
	var sum uint64
	for _, n := range res.PerThread {
		sum += n
	}
	if sum != res.Ops {
		t.Fatalf("per-thread sum %d != total %d", sum, res.Ops)
	}
	if res.Duration < 30*time.Millisecond {
		t.Fatalf("measured duration %v below configured", res.Duration)
	}
}

func TestRunDefaults(t *testing.T) {
	cfg := Config{NewQueue: glFactory, Duration: 10 * time.Millisecond, Prefill: 10}
	res := Run(cfg) // Threads 0 → 1
	if res.Ops == 0 || len(res.PerThread) != 1 {
		t.Fatalf("defaulted run: %+v", res)
	}
	c := Config{}.withDefaults()
	if c.Threads != 1 || c.Duration != time.Second || c.Seed == 0 {
		t.Fatalf("withDefaults: %+v", c)
	}
	if (Config{Prefill: -1}).withDefaults().Prefill != DefaultPrefill {
		t.Fatal("negative prefill did not select default")
	}
	if (Config{Prefill: 0}).withDefaults().Prefill != 0 {
		t.Fatal("zero prefill must stay zero")
	}
}

func TestPrefillCount(t *testing.T) {
	q := seqheap.NewGlobalLock()
	cfg := quickCfg(3)
	cfg.Prefill = 1003 // not divisible by 3: remainder must not be lost
	PrefillQueue(q, cfg)
	if n := q.Len(); n != 1003 {
		t.Fatalf("prefill inserted %d, want 1003", n)
	}
}

func TestPrefillZero(t *testing.T) {
	q := seqheap.NewGlobalLock()
	cfg := quickCfg(2)
	cfg.Prefill = 0
	PrefillQueue(q, cfg)
	if q.Len() != 0 {
		t.Fatal("zero prefill inserted items")
	}
}

func TestSplitWorkloadRuns(t *testing.T) {
	cfg := quickCfg(4)
	cfg.Workload = workload.Split
	res := Run(cfg)
	if res.Ops == 0 {
		t.Fatal("split run recorded no ops")
	}
}

func TestAlternatingWorkloadSteadyState(t *testing.T) {
	cfg := quickCfg(2)
	cfg.Workload = workload.Alternating
	res := Run(cfg)
	if res.Ops == 0 {
		t.Fatal("alternating run recorded no ops")
	}
	// Strict alternation starting with insert keeps the queue non-empty;
	// empty deletes should be rare (only transient races).
	if res.EmptyDeletes > res.Ops/10 {
		t.Fatalf("%d of %d deletes hit empty queue", res.EmptyDeletes, res.Ops)
	}
}

func TestRunRepeatedSummary(t *testing.T) {
	s := RunRepeated(quickCfg(2), 3)
	if len(s.Results) != 3 {
		t.Fatalf("%d results", len(s.Results))
	}
	if s.Throughput.N != 3 || s.Throughput.Mean <= 0 {
		t.Fatalf("summary: %+v", s.Throughput)
	}
	if len(RunRepeated(quickCfg(1), 0).Results) != 1 {
		t.Fatal("reps floor not applied")
	}
}

func TestReproducibleSeeds(t *testing.T) {
	// Same seed must produce the same prefill content (deterministic
	// generators); we verify via a drain comparison on two queues.
	q1 := seqheap.NewGlobalLock()
	q2 := seqheap.NewGlobalLock()
	cfg := quickCfg(2)
	cfg.Prefill = 500
	PrefillQueue(q1, cfg)
	PrefillQueue(q2, cfg)
	h1, h2 := q1.Handle(), q2.Handle()
	for {
		k1, _, ok1 := h1.DeleteMin()
		k2, _, ok2 := h2.DeleteMin()
		if ok1 != ok2 || k1 != k2 {
			t.Fatalf("prefill not reproducible: %d/%v vs %d/%v", k1, ok1, k2, ok2)
		}
		if !ok1 {
			break
		}
	}
}

// TestRunFlushesEngineeredHandles runs the engineered MultiQueue through
// the harness under the split workload, where the per-thread counters give
// exact insert and delete counts, timed and op-counted, at widths 1 and 8:
// after the run every operation must be accounted for in the queue (the
// workers' buffers were flushed at phase end, and a short delete batch
// counted its shortfall as empty deletes), and a single fresh handle must
// drain exactly prefill + inserts - successful deletes items.
func TestRunFlushesEngineeredHandles(t *testing.T) {
	for _, mode := range []struct {
		name     string
		duration time.Duration
		ops      int
	}{{"timed", 30 * time.Millisecond, 0}, {"ops", 0, 3000}} {
		for _, width := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/batch%d", mode.name, width), func(t *testing.T) {
				var captured *multiq.Queue
				res := Run(Config{
					NewQueue: func(threads int) pq.Queue {
						captured = multiq.NewEngineered(2, threads, 4, 8)
						return captured
					},
					Threads:  2, // split: worker 0 inserts only, worker 1 deletes only
					Duration: mode.duration,
					Ops:      mode.ops,
					Workload: workload.Split,
					KeyDist:  keys.Uniform32,
					Prefill:  100,
					OpBatch:  width,
					Seed:     21,
				})
				if res.Ops == 0 {
					t.Fatal("no operations completed")
				}
				if mode.ops > 0 && res.Ops != uint64(2*mode.ops) {
					t.Fatalf("Ops = %d, want %d", res.Ops, 2*mode.ops)
				}
				inserts := int(res.PerThread[0])
				deletes := int(res.PerThread[1] - res.EmptyDeletes)
				want := 100 + inserts - deletes
				if got := captured.Len(); got != want {
					t.Fatalf("queue holds %d items after run, want %d", got, want)
				}
				h := captured.Handle()
				drained := 0
				for {
					if _, _, ok := h.DeleteMin(); !ok {
						break
					}
					drained++
				}
				if drained != want {
					t.Fatalf("drained %d items, want %d", drained, want)
				}
			})
		}
	}
}

// TestRunOpsEngineered smokes the latency mode over the engineered variant.
func TestRunOpsEngineered(t *testing.T) {
	res := Run(Config{
		NewQueue: func(threads int) pq.Queue {
			return multiq.NewEngineered(2, threads, 4, 8)
		},
		Threads:  2,
		Workload: workload.Uniform,
		KeyDist:  keys.Uniform32,
		Prefill:  1000,
		Ops:      2000,
		Seed:     22,
	})
	if res.Ops != 4000 {
		t.Fatalf("Ops = %d, want 4000", res.Ops)
	}
	if res.LatencyP50 <= 0 || res.LatencyP99 < res.LatencyP50 {
		t.Fatalf("latency percentiles p50=%v p99=%v", res.LatencyP50, res.LatencyP99)
	}
}
