// Command pqbench runs the paper's throughput benchmark and prints one
// table per cell: thread count vs. queue implementation, in MOps/s with
// 95% confidence intervals over repeated runs.
//
// Regenerate a specific paper figure:
//
//	pqbench -figure 1                 # Figure 1 / 4a: uniform workload, uniform 32-bit keys
//	pqbench -figure 4e -duration 10s -reps 10
//
// or specify the cell explicitly:
//
//	pqbench -workload split -keys ascending -threads 1,2,4,8 \
//	        -queues klsm128,klsm256,klsm4096,linden,spray,multiq,globallock
//
// The -queues list accepts aliases: "paper" (the seven variants above),
// "engineered" (seed multiq vs. the engineered multiq-s4-b8 vs. klsm4096)
// and "klsm" (the paper's three relaxation settings):
//
//	pqbench -queues engineered -threads 8
//	pqbench -queues klsm -threads 8
//
// With -batch N the workers issue their operations through the batch API
// (InsertN/DeleteMinN, DESIGN.md §4c) in groups of N; MOps/s stays
// comparable across widths because a batch of N counts as N operations.
//
// The defaults use a short duration and few repetitions so a full sweep
// stays laptop-friendly; the paper's setup corresponds to -duration 10s
// -reps 10 -prefill 1000000.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cpq"
	"cpq/internal/cli"
	"cpq/internal/harness"
	"cpq/internal/keys"
	"cpq/internal/pq"
	"cpq/internal/stats"
	"cpq/internal/telemetry"
	"cpq/internal/workload"
)

func main() {
	var (
		figure    = flag.String("figure", "", "paper figure to regenerate (1, 2, 3, 4a-4h, 8a-8c); overrides -workload/-keys")
		workloadF = flag.String("workload", "uniform", "workload: uniform, split, alternating")
		keysF     = flag.String("keys", "uniform32", "key distribution: uniform32, uniform16, uniform8, ascending, descending")
		queuesF   = flag.String("queues", "", "comma-separated queue list; aliases: paper, engineered, klsm (default: the paper's seven variants)")
		threadsF  = flag.String("threads", "1,2,4,8", "comma-separated thread counts")
		duration  = flag.Duration("duration", time.Second, "measurement duration per run (paper: 10s)")
		reps      = flag.Int("reps", 3, "repetitions per cell (paper: 10)")
		prefill   = flag.Int("prefill", harness.DefaultPrefill, "prefill size (paper: 1000000)")
		seed      = flag.Uint64("seed", 0, "base RNG seed (0 = default)")
		pin       = flag.Bool("pin", false, "lock worker goroutines to OS threads")
		batch     = flag.Int("batch", 1, "operation batch width: route inserts/deletes through InsertN/DeleteMinN in batches of this size (1 = scalar; see DESIGN.md §4c)")
		altBatch  = flag.Int("altbatch", 1, "phase length for the alternating workload (Appendix F); formerly -batch")
		opsMode   = flag.Int("ops", 0, "latency mode: run this many ops per thread instead of a fixed duration")
		machine   = flag.String("machine", "localhost", "machine label; the paper's hosts (mars, saturn, ceres, pluto) preset the thread sweep of their figures")
		csvOut    = flag.Bool("csv", false, "emit CSV (threads,queue,mops,ci95; with -ops: threads,queue,seconds,p50_ns,p99_ns) instead of a table")
		markdown  = flag.Bool("markdown", false, "emit a markdown table instead of plain text")
		plot      = flag.Bool("plot", false, "also render an ASCII chart of throughput vs threads (like the paper's figures)")
		telemF    = flag.Bool("telemetry", false, "collect queue-internals counters and latency histograms; prints one section per cell after the table (see DESIGN.md §5)")
		churnN    = flag.Int("churn", 0, "goroutine-churn mode: spawn this many short-lived goroutines per cell through the handle pool instead of the fixed-duration grid (the -threads sweep becomes the concurrent-slot sweep)")
		churnAb   = flag.Int("churn-abandon", 0, "churn mode: every Nth goroutine abandons its handle instead of releasing it (0 = never)")
		churnNv   = flag.Bool("churn-naive", false, "churn mode: use the naive mutex-guarded handle list instead of the pool (baseline)")
		churnCap  = flag.Int("churn-cap", 0, "churn mode: pool handle cap (0 = slots+64; headroom amortizes one collector cycle over many abandonments)")
		churnBur  = flag.Int("churn-burst", 0, "churn mode: ops per short-lived goroutine (0 = the harness default, 64)")
	)
	prof := cli.NewProfiler(flag.CommandLine)
	flag.Parse()
	telemetry.Enabled = *telemF
	stopProf, err := prof.Start()
	exitOn(err)
	defer stopProf()

	wl, err := workload.Parse(*workloadF)
	exitOn(err)
	kd, err := keys.Parse(*keysF)
	exitOn(err)
	cellID := ""
	if *figure != "" {
		cell, err := cli.FigureByID(*figure)
		exitOn(err)
		wl, kd, cellID = cell.Workload, cell.KeyDist, cell.ID
	}
	threads, err := cli.ParseThreads(*threadsF)
	exitOn(err)
	if m, ok := cli.MachineByName(*machine); ok && !flagSet("threads") {
		threads = m.Threads // paper-machine preset, unless -threads overrides
	}
	queueNames := cpq.PaperNames()
	if *queuesF != "" {
		queueNames = cli.ExpandQueues(cli.ParseList(*queuesF))
	}
	cli.ValidateQueues("pqbench", queueNames) // validate before burning benchmark time
	cli.ValidateBatch("pqbench", *batch)
	cli.ValidateBatch("pqbench", *altBatch)

	if *churnN > 0 {
		runChurnTable(queueNames, threads, wl, kd,
			*churnN, *churnBur, *churnAb, *churnCap, *prefill, *reps, *seed, *churnNv, *markdown)
		return
	}

	run := fmt.Sprintf("duration=%v reps=%d", *duration, *reps)
	csvHead := "threads,queue,mops,ci95"
	footer := "# cells are MOps/s (insertions+deletions per second / 1e6), mean ±95% CI"
	if *opsMode > 0 {
		run = fmt.Sprintf("ops=%d", *opsMode)
		csvHead = "threads,queue,seconds,p50_ns,p99_ns"
		footer = "# cells are seconds for one run of ops per thread, with sampled per-op latency percentiles"
	}
	header := fmt.Sprintf("# machine=%s workload=%s keys=%s prefill=%d %s",
		*machine, wl, kd, *prefill, run)
	if *batch > 1 {
		header += fmt.Sprintf(" batch=%d", *batch)
	}
	if cellID != "" {
		header = fmt.Sprintf("# figure %s  %s", cellID, header[2:])
	}
	fmt.Println(header)

	var table cli.Table
	row := []string{"threads"}
	for _, name := range queueNames {
		row = append(row, name)
	}
	table.AddRow(row...)
	curves := map[string][]float64{}
	type telemEntry struct {
		threads int
		queue   string
		ops     uint64
		snap    telemetry.Snapshot
	}
	var telemEntries []telemEntry
	var csvRows []string // the same cells, as CSV rows in table order
	for _, p := range threads {
		row := []string{fmt.Sprintf("%d", p)}
		for _, name := range queueNames {
			name := name
			cfg := harness.Config{
				NewQueue: func(t int) pq.Queue {
					q, err := cpq.NewQueue(name, cpq.Options{Threads: t})
					exitOn(err)
					return q
				},
				Threads:   p,
				Duration:  *duration,
				Workload:  wl,
				KeyDist:   kd,
				Prefill:   *prefill,
				BatchSize: *altBatch,
				OpBatch:   *batch,
				Seed:      *seed,
				Pin:       *pin,
			}
			if *opsMode > 0 {
				// Latency mode: fixed op count; report elapsed time and
				// sampled per-op latency percentiles.
				res := harness.RunOps(cfg, *opsMode)
				row = append(row, fmt.Sprintf("%.3fs p50=%.0fns p99=%.0fns",
					res.Duration.Seconds(), res.LatencyP50, res.LatencyP99))
				csvRows = append(csvRows, fmt.Sprintf("%d,%s,%.6f,%.0f,%.0f",
					p, name, res.Duration.Seconds(), res.LatencyP50, res.LatencyP99))
				curves[name] = append(curves[name], res.MOps())
				if res.Telemetry != nil {
					telemEntries = append(telemEntries,
						telemEntry{p, name, res.Ops, *res.Telemetry})
				}
			} else {
				s := harness.RunRepeated(cfg, *reps)
				row = append(row, fmt.Sprintf("%.3f ±%.3f", s.Throughput.Mean, s.Throughput.CI95))
				csvRows = append(csvRows, fmt.Sprintf("%d,%s,%.3f,%.3f",
					p, name, s.Throughput.Mean, s.Throughput.CI95))
				curves[name] = append(curves[name], s.Throughput.Mean)
				if s.Telemetry != nil {
					var ops uint64
					for _, r := range s.Results {
						ops += r.Ops
					}
					telemEntries = append(telemEntries,
						telemEntry{p, name, ops, *s.Telemetry})
				}
			}
		}
		table.AddRow(row...)
	}
	switch {
	case *csvOut:
		fmt.Println(csvHead)
		for _, r := range csvRows {
			fmt.Println(r)
		}
	case *markdown:
		fmt.Print(table.Markdown())
	default:
		fmt.Print(table.String())
	}
	fmt.Println(footer)
	if len(telemEntries) > 0 {
		fmt.Println("\n# telemetry (counters summed over reps; rates are per completed op; see DESIGN.md §5)")
		for _, e := range telemEntries {
			fmt.Printf("## threads=%d queue=%s ops=%d\n", e.threads, e.queue, e.ops)
			fmt.Print(e.snap.Table("  ", e.ops))
			fmt.Print(e.snap.LatencySummary("  "))
		}
	}
	if *plot {
		chart := cli.NewPlot(header, threads)
		chart.XLabel, chart.YLabel = "threads", "MOps/s"
		for _, name := range queueNames {
			chart.AddSeries(name, curves[name])
		}
		fmt.Println()
		fmt.Print(chart.String())
	}
}

// runChurnTable is the -churn mode: a slots × queue table of goroutine-
// churn throughput (harness.RunChurn). Each cell spawns `goroutines`
// short-lived goroutines across `slots` concurrent slots, every one
// checking a handle out of the pool (or the naive baseline's mutex-guarded
// list), doing a small op burst, and checking it back in; the reported
// MOps/s includes that lifecycle cost. Handle accounting (created, steals)
// is appended to each cell so abandonment recovery is visible in the table.
func runChurnTable(queueNames []string, slotCounts []int,
	wl workload.Kind, kd keys.Distribution,
	goroutines, burst, abandonEvery, capHandles, prefill, reps int, seed uint64,
	naive, markdown bool) {
	lifecycle := "pool"
	if naive {
		lifecycle = "naive"
	}
	fmt.Printf("# churn goroutines=%d lifecycle=%s abandon_every=%d workload=%s keys=%s prefill=%d reps=%d\n",
		goroutines, lifecycle, abandonEvery, wl, kd, prefill, reps)

	var table cli.Table
	head := []string{"slots"}
	head = append(head, queueNames...)
	table.AddRow(head...)
	for _, slots := range slotCounts {
		row := []string{fmt.Sprintf("%d", slots)}
		// Headroom above the working set: a starved Acquire blocks on a
		// collector cycle, so the cap decides how many abandonments one
		// cycle amortizes over. slots+1 would GC per abandonment.
		poolCap := capHandles
		if poolCap <= 0 {
			poolCap = slots + 64
		}
		for _, name := range queueNames {
			name := name
			var mops []float64
			var last harness.ChurnStats
			for rep := 0; rep < reps; rep++ {
				last = harness.RunChurn(harness.ChurnConfig{
					NewQueue: func(t int) pq.Queue {
						q, err := cpq.NewQueue(name, cpq.Options{Threads: t})
						exitOn(err)
						return q
					},
					Slots:        slots,
					Goroutines:   goroutines,
					BurstOps:     burst,
					Workload:     wl,
					KeyDist:      kd,
					Prefill:      prefill,
					Seed:         seed + uint64(rep),
					AbandonEvery: abandonEvery,
					MaxHandles:   poolCap,
					Naive:        naive,
				})
				mops = append(mops, last.MOps())
			}
			s := stats.Summarize(mops)
			row = append(row, fmt.Sprintf("%.3f ±%.3f h=%d s=%d",
				s.Mean, s.CI95, last.HandlesCreated, last.Steals))
		}
		table.AddRow(row...)
	}
	if markdown {
		fmt.Print(table.Markdown())
	} else {
		fmt.Print(table.String())
	}
	fmt.Println("# cells are MOps/s mean ±95% CI; h = handles created, s = abandoned handles stolen back (last rep)")
}

// flagSet reports whether the named flag was explicitly provided.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pqbench:", err)
		os.Exit(1)
	}
}
