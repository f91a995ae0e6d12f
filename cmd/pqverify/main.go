// Command pqverify checks the relaxation claims of the queues against
// observed behaviour — the paper's "it is as important to characterize the
// deviation from strict priority queue behavior, also for verifying whether
// claimed relaxation bounds hold".
//
// For every queue it runs the rank-error benchmark and judges each
// deletion's definite rank (see internal/quality) against the structure's
// advertised bound (quality.ClaimedBound: kP for the k-LSM, k for the SLSM,
// C·P·log³P for spray, 0 for the strict queues; multiq* and dlsm have none
// and are reported, not judged). A definite rank above the bound is a real
// violation, so a queue FAILs on any such deletion, with no slack and no
// tolerance. The table also shows the paper's pessimistic rank (max and
// mean), which reports error rather than judging it.
//
// With -chaos the tool instead runs every queue through the fault-injection
// stress harness (internal/chaos): seeded schedule perturbations and forced
// CAS/try-lock failures at the structures' failpoints, mid-run handle
// abandonment, and a forensic pass checking item conservation (nothing
// lost, nothing deleted twice), the emptiness oracle, the Flusher recovery
// contract and the relaxation bounds. A failure prints the seed; re-running
// with -seed <value> replays the same injected decision sequence.
package main

import (
	"flag"
	"fmt"
	"os"

	"cpq"
	"cpq/internal/chaos"
	"cpq/internal/cli"
	"cpq/internal/keys"
	"cpq/internal/pq"
	"cpq/internal/quality"
	"cpq/internal/workload"
)

func main() {
	var (
		queuesF  = flag.String("queues", "", "queues to verify (default: all registered)")
		threadsF = flag.Int("threads", 4, "worker goroutines")
		ops      = flag.Int("ops", 30_000, "operations per thread")
		prefill  = flag.Int("prefill", 50_000, "prefill size")
		seed     = flag.Uint64("seed", 0, "RNG seed (chaos: replays a failing run's injection)")
		chaosF   = flag.Bool("chaos", false, "run the fault-injection stress harness instead of the plain rank check")
		batch    = flag.Int("batch", 1, "operation batch width: route operations through InsertN/DeleteMinN (chaos interleaves batch and scalar calls; see DESIGN.md §4c)")
		poolF    = flag.Bool("pool", false, "route handles through the elastic pq.Pool lifecycle and judge bounds against the dynamic handle count (quality.EffectiveP); chaos mode recovers abandoned handles by stealing")
	)
	prof := cli.NewProfiler(flag.CommandLine)
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pqverify:", err)
		os.Exit(2)
	}
	defer stopProf()

	names := cpq.Names()
	if *queuesF != "" {
		names = cli.ParseList(*queuesF)
	}
	cli.ValidateQueues("pqverify", names)
	cli.ValidateBatch("pqverify", *batch)

	if *chaosF {
		if runChaos(names, *threadsF, *ops, *seed, *batch, *poolF) {
			stopProf() // flush profiles: os.Exit skips deferred calls
			os.Exit(1)
		}
		return
	}

	failures := 0
	fmt.Printf("%-12s %-14s %10s %10s %13s %12s  %s\n",
		"queue", "claimed bound", "max rank", "mean", "max definite", "violations", "verdict")
	for _, name := range names {
		res := quality.Run(quality.Config{
			NewQueue:     factory(name),
			Threads:      *threadsF,
			OpsPerThread: *ops,
			Workload:     workload.Uniform,
			KeyDist:      keys.Uniform32,
			Prefill:      *prefill,
			OpBatch:      *batch,
			Seed:         *seed,
			UsePool:      *poolF,
		})
		// The benchmark adds a prefill handle beyond the workers, so the
		// effective P for per-handle bounds (kP) is threads+1 — unless the
		// run went through the pool, in which case the pool's own
		// accounting (peak-live handles, created handles) sets the window
		// and the bound shrinks with the actual lifecycle.
		effP := *threadsF + 1
		if *poolF {
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
		fmt.Printf("%-12s %-14s %10d %10.1f %13d %12s  %s\n",
			name, boundStr, res.MaxRank, res.MeanRank, res.MaxDefinite, violations, verdict)
	}
	if failures > 0 {
		fmt.Printf("\n%d queue(s) had deletions with a definite rank above their claimed bound\n", failures)
		stopProf() // flush profiles: os.Exit skips deferred calls
		os.Exit(1)
	}
	fmt.Println("\nall claimed bounds hold: no deletion's definite rank exceeds its queue's bound")
}

// factory constructs the named registry queue (validated up front).
func factory(name string) func(threads int) pq.Queue {
	return func(threads int) pq.Queue {
		q, err := cpq.NewQueue(name, cpq.Options{Threads: threads})
		if err != nil {
			panic(err)
		}
		return q
	}
}

// runChaos stress-tests every named queue under fault injection and reports
// per-queue verdicts; it returns true if any invariant was violated.
func runChaos(names []string, threads, ops int, seed uint64, batch int, pool bool) (failed bool) {
	flags := fmt.Sprintf("-threads %d -ops %d", threads, ops)
	if batch > 1 {
		flags += fmt.Sprintf(" -batch %d", batch)
	}
	if pool {
		flags += " -pool"
	}
	fmt.Printf("chaos: %s", flags)
	if seed != 0 {
		fmt.Printf(" -seed %#x (replay)", seed)
	}
	fmt.Println()
	fmt.Printf("%-14s %-42s %s\n", "queue", "run", "verdict")
	for _, name := range names {
		res := chaos.Check(chaos.CheckConfig{
			Name:         name,
			NewQueue:     factory(name),
			Threads:      threads,
			OpsPerThread: ops,
			Seed:         seed,
			OpBatch:      batch,
			UsePool:      pool,
		})
		fmt.Println(res)
		if res.Failed() {
			failed = true
			fmt.Printf("    replay: pqverify -chaos -queues %s %s -seed %#x\n", name, flags, res.Seed)
		}
	}
	if failed {
		fmt.Println("\nchaos: invariant violations found (replay lines above)")
	} else {
		fmt.Println("\nchaos: all invariants held under fault injection")
	}
	return failed
}
