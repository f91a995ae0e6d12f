// Command bench is the repository's benchmark. One process runs one
// workload: it sets the system up, measures it under load for a fixed
// phase, checks that no item was lost or duplicated on the way, and prints
// one JSON result line (the last line of standard output):
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// An untraced run (--trace 0) reports the end-to-end metrics a user of the
// system sees. A traced run (--trace 1) wraps every layer's public
// interface from outside, reports the per-layer metrics and writes the
// sampled spans to a file. BENCHMARK.json at the repository root lists the
// workloads and metrics with their units and regression bounds; README.md
// in this directory explains them.
//
//	bash bench/run.sh --workload fig4a --seed 1 --seconds 8 --trace 0
//	bash bench/run.sh --compare DIR_A DIR_B
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cpq/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line and returns the process exit code: 0 for a
// correct run, 1 for a failed check or a run that could not be made, 2
// for a bad command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the inputs are derived from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 for a traced run: per-layer metrics, and spans written to .bench_build/spans/<workload>-<seed>.json")
	compareF := fs.Bool("compare", false, "compare the runs in two result directories: --compare DIR_A DIR_B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareF {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare takes two directories")
			return 2
		}
		if err := compare("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	dir, err := os.MkdirTemp("", "cpqbench-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		spans:   spanFile(w.name, *seed),
		dir:     dir,
		sizes:   fullSizes,
	}
	return execute(w, cfg, stdout, stderr)
}

// spanFile is where a traced run writes its spans, relative to the root of
// the checkout the benchmark runs from.
func spanFile(workload string, seed uint64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", workload, seed))
}

// execute runs one workload and prints its result line. A failed check
// still prints the result, with correct false, and exits 1.
func execute(w workloadSpec, cfg config, stdout, stderr io.Writer) int {
	run := untraced
	if cfg.trace {
		run = traced
	}
	res, err := run(w, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, p)
	}
	line, err := res.marshal()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.correct() {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one run reports.
type result struct {
	attempted uint64 // items the load generator tried to move
	failed    uint64 // items lost, duplicated or refused
	problems  []string
	metrics   []metric
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *result) add(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// absorb adds a phase's counts and problems to the result.
func (r *result) absorb(ph *phase) {
	r.attempted += ph.attempted
	r.failed += ph.failed
	r.problems = append(r.problems, ph.problems...)
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) marshal() ([]byte, error) {
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted uint64               `json:"attempted"`
		Failed    uint64               `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, make(map[string]jsonValue, len(r.metrics))}
	for _, m := range r.metrics {
		if _, dup := out.Metrics[m.name]; dup {
			return nil, fmt.Errorf("metric %s reported twice", m.name)
		}
		out.Metrics[m.name] = jsonValue{m.value, m.unit}
	}
	return json.Marshal(out)
}

// median returns the median of xs (0 for none), without reordering xs.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// nsPercentile is stats.Percentile over nanosecond samples (NaN for none,
// which result.add reports as 0).
func nsPercentile(ns []uint32, p float64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return stats.Percentile(xs, p)
}

// ratio is a / b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
