package main

import (
	"flag"
	"fmt"
	"io"

	"cpq"
	"cpq/internal/chaos"
	"cpq/internal/keys"
	"cpq/internal/quality"
	"cpq/internal/workload"
)

// checkRun is the verify and chaos modes.
//
// verify runs the rank-error benchmark on every queue and judges each
// deletion's definite rank (internal/quality) against the queue's claimed
// bound (quality.ClaimedBound; multiq* and dlsm claim none and are reported,
// not judged). One deletion above the bound fails its queue: no slack.
//
// chaos runs every queue through internal/chaos: seeded schedule
// perturbations and forced CAS/try-lock failures, mid-run handle
// abandonment, then checks conservation, the emptiness oracle, the Flusher
// contract and the bounds. A failure prints a line that replays its seed.
type checkRun struct {
	common
	chaos   bool
	threads int
	ops     int
	prefill int
	pool    bool
}

func newCheck(fs *flag.FlagSet, chaos bool) *checkRun {
	c := &checkRun{chaos: chaos}
	c.register(fs, "every registered queue")
	fs.IntVar(&c.threads, "threads", 4, "worker goroutines")
	fs.IntVar(&c.ops, "ops", 30_000, "operations per thread")
	if !chaos {
		fs.IntVar(&c.prefill, "prefill", 50_000, "prefill size")
	}
	fs.BoolVar(&c.pool, "pool", false, "route handles through the elastic pq.Pool and judge bounds at the pool's handle count (quality.EffectiveP); chaos recovers abandoned handles by Release")
	return c
}

func (c *checkRun) check() error {
	if c.threads < 1 {
		return fmt.Errorf("bad thread count %d (want >= 1)", c.threads)
	}
	return c.resolve(cpq.Names())
}

func (c *checkRun) exec(w io.Writer) (bool, error) {
	if c.chaos {
		return c.runChaos(w), nil
	}
	failures := 0
	fmt.Fprintf(w, "%-12s %-14s %10s %10s %13s %12s  %s\n",
		"queue", "claimed bound", "max rank", "mean", "max definite", "violations", "verdict")
	for _, name := range c.queues {
		res := quality.Run(quality.Config{
			NewQueue:     factory(name),
			Threads:      c.threads,
			OpsPerThread: c.ops,
			Workload:     workload.Uniform,
			KeyDist:      keys.Uniform32,
			Prefill:      c.prefill,
			OpBatch:      c.batch,
			Seed:         c.seed,
			UsePool:      c.pool,
		})
		// The benchmark's prefill handle makes P threads+1 for per-handle
		// bounds (kP); through the pool, its own accounting (peak-live and
		// created handles) sets P instead.
		effP := c.threads + 1
		if c.pool {
			effP = quality.EffectiveP(name, res.PoolPeakLive, res.PoolCreated)
		}
		boundStr, violations, verdict := "(none)", "-", "reported only"
		if bound, kind := quality.ClaimedBound(name, effP); kind != quality.BoundNone {
			v := quality.ViolationsAbove(res, bound)
			boundStr, violations, verdict = fmt.Sprint(bound), fmt.Sprint(v), "PASS"
			if v > 0 {
				verdict = "FAIL"
				failures++
			}
		}
		fmt.Fprintf(w, "%-12s %-14s %10d %10.1f %13d %12s  %s\n",
			name, boundStr, res.MaxRank, res.MeanRank, res.MaxDefinite, violations, verdict)
	}
	if failures > 0 {
		fmt.Fprintf(w, "\n%d queue(s) had deletions with a definite rank above their claimed bound\n", failures)
		return true, nil
	}
	fmt.Fprintln(w, "\nall claimed bounds hold: no deletion's definite rank exceeds its queue's bound")
	return false, nil
}

// runFlags renders the chaos run's settings as the flags that select them.
func (c *checkRun) runFlags() string {
	s := fmt.Sprintf("-threads %d -ops %d", c.threads, c.ops)
	if c.batch > 1 {
		s += fmt.Sprintf(" -batch %d", c.batch)
	}
	if c.pool {
		s += " -pool"
	}
	return s
}

// replayLine is the command that re-runs one queue's chaos pass with seed.
func (c *checkRun) replayLine(name string, seed uint64) string {
	return fmt.Sprintf("pqbench chaos -queues %s %s -seed %#x", name, c.runFlags(), seed)
}

// runChaos prints one verdict per queue and reports whether any invariant
// was violated.
func (c *checkRun) runChaos(w io.Writer) (failed bool) {
	fmt.Fprintf(w, "chaos: %s", c.runFlags())
	if c.seed != 0 {
		fmt.Fprintf(w, " -seed %#x (replay)", c.seed)
	}
	fmt.Fprintf(w, "\n%-14s %-42s %s\n", "queue", "run", "verdict")
	for _, name := range c.queues {
		res := chaos.Check(chaos.CheckConfig{
			Name:         name,
			NewQueue:     factory(name),
			Threads:      c.threads,
			OpsPerThread: c.ops,
			Seed:         c.seed,
			OpBatch:      c.batch,
			UsePool:      c.pool,
		})
		fmt.Fprintln(w, res)
		if res.Failed() {
			failed = true
			fmt.Fprintf(w, "    replay: %s\n", c.replayLine(name, res.Seed))
		}
	}
	if failed {
		fmt.Fprintln(w, "\nchaos: invariant violations found (replay lines above)")
	} else {
		fmt.Fprintln(w, "\nchaos: all invariants held under fault injection")
	}
	return failed
}
