package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"cpq"
	"cpq/internal/cli"
	"cpq/internal/harness"
	"cpq/internal/keys"
	"cpq/internal/quality"
	"cpq/internal/stats"
	"cpq/internal/telemetry"
	"cpq/internal/workload"
)

// cellsRun is the cells mode: one throughput cell (a thread count × queue
// table in MOps/s with 95% confidence intervals, or elapsed time and
// latency percentiles with -ops), one rank-error cell (queue × thread count,
// mean rank and stddev: the paper's Tables 1-5), the goroutine-churn table,
// or the grid report. The defaults keep a sweep short; the paper's setup is
// -duration 10s -reps 10 -prefill 1000000.
type cellsRun struct {
	common
	fs                  *flag.FlagSet
	figure, table       string
	workloadF, keysF    string
	threadsF, qthreadsF string
	duration            time.Duration
	reps, prefill, ops  int
	qops, qprefill      int
	altBatch            int
	csv, telem          bool
	churn, churnAbandon int
	churnNaive          bool
	out                 string
	wl                  workload.Kind
	kd                  keys.Distribution
	cellID              string
	threads, qthreads   []int
}

func newCells(fs *flag.FlagSet) *cellsRun {
	c := &cellsRun{fs: fs}
	c.register(fs, "paper")
	fs.StringVar(&c.figure, "figure", "", "paper figure panel (1, 2, 3, 4a-4h, 8a-8c; overrides -workload/-keys), or all for the grid report's throughput half")
	fs.StringVar(&c.table, "table", "", "paper rank-error table panel (1, 2a-2h, 5a-5c), or all for the grid report's rank-error half")
	fs.StringVar(&c.workloadF, "workload", "uniform", "workload: uniform, split, alternating")
	fs.StringVar(&c.keysF, "keys", "uniform32", "key distribution: uniform32, uniform16, uniform8, ascending, descending")
	fs.StringVar(&c.threadsF, "threads", "1,2,4,8", "comma-separated thread counts (-table default: 2,4,8)")
	fs.DurationVar(&c.duration, "duration", time.Second, "measurement duration per run (paper: 10s)")
	fs.IntVar(&c.reps, "reps", 3, "repetitions per cell (paper: 10)")
	fs.IntVar(&c.prefill, "prefill", harness.DefaultPrefill, "prefill size (-table default: 100000; rank runs replay the whole log)")
	fs.IntVar(&c.ops, "ops", 0, "latency mode: run this many ops per thread instead of a fixed duration (-table: ops per thread, default 50000)")
	fs.IntVar(&c.altBatch, "altbatch", 1, "phase length for the alternating workload (the paper's Appendix-F operation batch size)")
	fs.BoolVar(&c.csv, "csv", false, "emit CSV (threads,queue,mops,ci95; with -ops: threads,queue,seconds,p50_ns,p99_ns) instead of a table")
	fs.BoolVar(&c.telem, "telemetry", false, "collect queue-internals counters and latency histograms; print one section per cell (see DESIGN.md §5)")
	fs.IntVar(&c.churn, "churn", 0, "goroutine-churn mode: spawn this many short-lived goroutines per cell through the handle pool (the -threads sweep becomes the concurrent-slot sweep)")
	fs.IntVar(&c.churnAbandon, "churn-abandon", 0, "churn mode: every Nth goroutine abandons its handle instead of releasing it (0 = never)")
	fs.BoolVar(&c.churnNaive, "churn-naive", false, "churn mode: use the naive mutex-guarded handle list instead of the pool (baseline)")
	fs.StringVar(&c.out, "out", "", "output file (default stdout)")
	fs.IntVar(&c.qops, "qops", 30_000, "grid report: rank-error operations per thread")
	fs.IntVar(&c.qprefill, "qprefill", 50_000, "grid report: rank-error prefill size")
	fs.StringVar(&c.qthreadsF, "qthreads", "2,4,8", "grid report: thread counts of the rank-error panels")
	return c
}

func (c *cellsRun) grid() bool { return c.figure == "all" || c.table == "all" }

func (c *cellsRun) check() error {
	var err error
	if c.wl, err = workload.Parse(c.workloadF); err != nil {
		return err
	}
	if c.kd, err = keys.Parse(c.keysF); err != nil {
		return err
	}
	switch {
	case c.figure != "" && c.table != "" && (c.figure != "all" || c.table != "all"):
		return fmt.Errorf("-figure %q with -table %q: give one panel, or -figure all -table all", c.figure, c.table)
	case c.grid():
		if c.qthreads, err = cli.ParseThreads(c.qthreadsF); err != nil {
			return err
		}
	case c.table != "":
		cell, err := cli.TableByID(c.table)
		if err != nil {
			return err
		}
		c.wl, c.kd = cell.Workload, cell.KeyDist
		set := map[string]bool{}
		c.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for name, def := range map[string]string{"threads": "2,4,8", "ops": "50000", "prefill": "100000"} {
			if !set[name] {
				c.fs.Set(name, def) // a rank cell's default; it parses, so Set cannot fail
			}
		}
	case c.figure != "":
		cell, err := cli.FigureByID(c.figure)
		if err != nil {
			return err
		}
		c.wl, c.kd, c.cellID = cell.Workload, cell.KeyDist, cell.ID
	}
	if c.threads, err = cli.ParseThreads(c.threadsF); err != nil {
		return err
	}
	if err := cli.CheckBatch("altbatch", c.altBatch); err != nil {
		return err
	}
	return c.resolve(cpq.PaperNames())
}

func (c *cellsRun) exec(w io.Writer) (bool, error) {
	telemetry.Enabled = c.telem
	var f *os.File
	if c.out != "" {
		var err error
		if f, err = os.Create(c.out); err != nil {
			return false, err
		}
		defer f.Close() // error paths only; the success path checks Close below
		w = f
	}
	switch {
	case c.grid():
		c.report(w)
	case c.table != "":
		fmt.Fprintf(w, "# workload=%s keys=%s prefill=%d ops/thread=%d batch=%d\n",
			c.wl, c.kd, c.prefill, c.ops, c.batch)
		fmt.Fprint(w, c.rankCell(c.wl, c.kd, c.threads, c.ops, c.prefill).String())
		fmt.Fprintln(w, "# cells are mean rank (stddev); rank 0 = exact minimum")
	case c.churn > 0:
		c.churnCell(w)
	default:
		c.figureCell(w)
	}
	if f != nil {
		return false, f.Close()
	}
	return false, nil
}

type telemEntry struct {
	threads int
	queue   string
	ops     uint64
	snap    telemetry.Snapshot
}

// thruCell runs one throughput cell, every thread count × queue, and
// returns its table, the same cells as CSV rows, and the telemetry of each
// run that collected any.
func (c *cellsRun) thruCell(wl workload.Kind, kd keys.Distribution) (t cli.Table, csv []string, telem []telemEntry) {
	t.AddRow(append([]string{"threads"}, c.queues...)...)
	for _, p := range c.threads {
		row := []string{fmt.Sprint(p)}
		for _, name := range c.queues {
			cfg := harness.Config{
				NewQueue:  factory(name),
				Threads:   p,
				Duration:  c.duration,
				Workload:  wl,
				KeyDist:   kd,
				Prefill:   c.prefill,
				BatchSize: c.altBatch,
				OpBatch:   c.batch,
				Seed:      c.seed,
			}
			var s harness.Series
			if c.ops > 0 {
				// Latency mode: a fixed op count; elapsed time and sampled
				// per-op latency percentiles.
				res := harness.RunOps(cfg, c.ops)
				row = append(row, fmt.Sprintf("%.3fs p50=%.0fns p99=%.0fns",
					res.Duration.Seconds(), res.LatencyP50, res.LatencyP99))
				csv = append(csv, fmt.Sprintf("%d,%s,%.6f,%.0f,%.0f",
					p, name, res.Duration.Seconds(), res.LatencyP50, res.LatencyP99))
				s = harness.Series{Results: []harness.Result{res}, Telemetry: res.Telemetry}
			} else {
				s = harness.RunRepeated(cfg, c.reps)
				row = append(row, fmt.Sprintf("%.3f ±%.3f", s.Throughput.Mean, s.Throughput.CI95))
				csv = append(csv, fmt.Sprintf("%d,%s,%.3f,%.3f", p, name, s.Throughput.Mean, s.Throughput.CI95))
			}
			if s.Telemetry != nil {
				var ops uint64
				for _, res := range s.Results {
					ops += res.Ops
				}
				telem = append(telem, telemEntry{p, name, ops, *s.Telemetry})
			}
		}
		t.AddRow(row...)
	}
	return t, csv, telem
}

// rankCell runs one rank-error cell: every queue × thread count.
func (c *cellsRun) rankCell(wl workload.Kind, kd keys.Distribution, threads []int, ops, prefill int) *cli.Table {
	var t cli.Table
	head := []string{"queue"}
	for _, p := range threads {
		head = append(head, fmt.Sprintf("%d threads", p))
	}
	t.AddRow(head...)
	for _, name := range c.queues {
		row := []string{name}
		for _, p := range threads {
			res := quality.Run(quality.Config{
				NewQueue:     factory(name),
				Threads:      p,
				OpsPerThread: ops,
				Workload:     wl,
				KeyDist:      kd,
				Prefill:      prefill,
				OpBatch:      c.batch,
				Seed:         c.seed,
			})
			row = append(row, fmt.Sprintf("%.1f (%.1f)", res.MeanRank, res.StddevRank))
		}
		t.AddRow(row...)
	}
	return &t
}

// writeTelemetry prints each entry's counter table and latency summary.
func writeTelemetry(w io.Writer, entries []telemEntry) {
	for _, e := range entries {
		fmt.Fprintf(w, "## threads=%d queue=%s ops=%d\n", e.threads, e.queue, e.ops)
		fmt.Fprint(w, e.snap.Table("  ", e.ops))
		fmt.Fprint(w, e.snap.LatencySummary("  "))
	}
}

// figureCell prints one throughput cell as a table (or CSV).
func (c *cellsRun) figureCell(w io.Writer) {
	run := fmt.Sprintf("duration=%v reps=%d", c.duration, c.reps)
	csvHead := "threads,queue,mops,ci95"
	footer := "# cells are MOps/s (insertions+deletions per second / 1e6), mean ±95% CI"
	if c.ops > 0 {
		run = fmt.Sprintf("ops=%d", c.ops)
		csvHead = "threads,queue,seconds,p50_ns,p99_ns"
		footer = "# cells are seconds for one run of ops per thread, with sampled per-op latency percentiles"
	}
	header := fmt.Sprintf("workload=%s keys=%s prefill=%d %s", c.wl, c.kd, c.prefill, run)
	if c.batch > 1 {
		header += fmt.Sprintf(" batch=%d", c.batch)
	}
	if c.cellID != "" {
		header = fmt.Sprintf("figure %s  %s", c.cellID, header)
	}
	fmt.Fprintln(w, "# "+header)
	t, csv, telem := c.thruCell(c.wl, c.kd)
	if c.csv {
		fmt.Fprintln(w, csvHead)
		for _, row := range csv {
			fmt.Fprintln(w, row)
		}
	} else {
		fmt.Fprint(w, t.String())
	}
	fmt.Fprintln(w, footer)
	if len(telem) > 0 {
		fmt.Fprintln(w, "\n# telemetry (counters summed over reps; rates are per completed op; see DESIGN.md §5)")
		writeTelemetry(w, telem)
	}
}

// churnCell prints a slots × queue table of goroutine-churn throughput
// (harness.RunChurn): -churn short-lived goroutines per cell, each checking
// a handle out of the pool (or the naive baseline's list) for one small op
// burst. Each cell also shows handles created and abandoned ones stolen back.
func (c *cellsRun) churnCell(w io.Writer) {
	lifecycle := "pool"
	if c.churnNaive {
		lifecycle = "naive"
	}
	fmt.Fprintf(w, "# churn goroutines=%d lifecycle=%s abandon_every=%d workload=%s keys=%s prefill=%d reps=%d\n",
		c.churn, lifecycle, c.churnAbandon, c.wl, c.kd, c.prefill, c.reps)
	var t cli.Table
	t.AddRow(append([]string{"slots"}, c.queues...)...)
	for _, slots := range c.threads {
		row := []string{fmt.Sprint(slots)}
		for _, name := range c.queues {
			var mops []float64
			var last harness.ChurnStats
			for rep := 0; rep < c.reps; rep++ {
				last = harness.RunChurn(harness.ChurnConfig{
					NewQueue:     factory(name),
					Slots:        slots,
					Goroutines:   c.churn,
					Workload:     c.wl,
					KeyDist:      c.kd,
					Prefill:      c.prefill,
					Seed:         c.seed + uint64(rep),
					AbandonEvery: c.churnAbandon,
					// Headroom above the working set: a starved Acquire
					// blocks on a collector cycle, so the cap sets how many
					// abandonments one cycle amortizes over (slots+1 would
					// collect once per abandonment).
					MaxHandles: slots + 64,
					Naive:      c.churnNaive,
				})
				mops = append(mops, last.MOps())
			}
			s := stats.Summarize(mops)
			row = append(row, fmt.Sprintf("%.3f ±%.3f h=%d s=%d",
				s.Mean, s.CI95, last.HandlesCreated, last.Steals))
		}
		t.AddRow(row...)
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "# cells are MOps/s mean ±95% CI; h = handles created, s = abandoned handles stolen back (last rep)")
}

// report prints the grid as one markdown report: every figure panel's
// throughput cell (-figure all) and every table panel's rank-error cell
// (-table all), each through the same cell function as a single panel.
func (c *cellsRun) report(w io.Writer) {
	fmt.Fprintf(w, "# Reproduction report\n\n")
	fmt.Fprintf(w, "Host: %d logical CPUs (GOMAXPROCS=%d), %s/%s, %s.\n\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version())
	if most, ncpu := max(slices.Max(c.threads), slices.Max(c.qthreads)), runtime.NumCPU(); most > ncpu {
		fmt.Fprintf(w, "**Warning:** the thread sweep reaches %d workers on %d logical CPUs. "+
			"Oversubscribed cells measure scheduler behavior, not queue scalability; "+
			"compare only the ≤%d-thread columns against the paper.\n\n", most, ncpu, ncpu)
	}
	fmt.Fprintf(w, "Throughput: duration=%v reps=%d prefill=%d. Quality: ops/thread=%d prefill=%d.\n\n",
		c.duration, c.reps, c.prefill, c.qops, c.qprefill)
	if c.batch > 1 {
		fmt.Fprintf(w, "Operations are batched: width %d through InsertN/DeleteMinN (DESIGN.md §4c).\n\n", c.batch)
	}
	if c.figure == "all" {
		fmt.Fprintf(w, "## Throughput (MOps/s, mean ±95%% CI)\n\n")
		for _, cell := range cli.Figures() {
			fmt.Fprintf(w, "### Figure %s: %s workload, %s keys\n\n", cell.ID, cell.Workload, cell.KeyDist)
			t, _, telem := c.thruCell(cell.Workload, cell.KeyDist)
			fmt.Fprintln(w, t.Markdown())
			if len(telem) > 0 {
				fmt.Fprintln(w, "```")
				writeTelemetry(w, telem)
				fmt.Fprint(w, "```\n\n")
			}
		}
	}
	if c.table == "all" {
		fmt.Fprintf(w, "## Rank error (mean rank, stddev in parentheses; 0 = strict)\n\n")
		for _, cell := range cli.Figures() {
			// Tables 2 and 5 mirror Figures 4 and 8 panel for panel.
			id := "2" + cell.ID[1:]
			if cell.ID[0] == '8' {
				id = "5" + cell.ID[1:]
			}
			fmt.Fprintf(w, "### Table %s: %s workload, %s keys\n\n", id, cell.Workload, cell.KeyDist)
			fmt.Fprintln(w, c.rankCell(cell.Workload, cell.KeyDist, c.qthreads, c.qops, c.qprefill).Markdown())
		}
	}
}
