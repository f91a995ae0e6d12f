package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(file string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return &s, nil
}

// resultLine is a run's result line as printed.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// parseResult reads the result line: the last non-empty line of a run's
// standard output.
func parseResult(out []byte) (resultLine, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r resultLine
	err := json.Unmarshal(lines[len(lines)-1], &r)
	return r, err
}

// loadRuns reads every run file in dir (one run's standard output each).
func loadRuns(dir string) ([]resultLine, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []resultLine
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		r, err := parseResult(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Join(dir, e.Name()), err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// compare prints, for each (end-to-end metric, workload) pair, the median
// and quartiles of the runs in dirA and dirB and a verdict against the
// metric's bound. Runs of workload w are the files in <dir>/<w>/, each
// holding one run's standard output.
func compare(specFile, dirA, dirB string, out io.Writer) error {
	spec, err := readSpec(specFile)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	for _, w := range spec.Workloads {
		runsA, err := loadRuns(filepath.Join(dirA, w.Name))
		if err != nil {
			return err
		}
		runsB, err := loadRuns(filepath.Join(dirB, w.Name))
		if err != nil {
			return err
		}
		if len(runsA) == 0 || len(runsB) == 0 {
			fmt.Fprintf(tw, "%s\t(no runs)\t\t\t\t\t\n", w.Name)
			continue
		}
		for _, m := range spec.EndToEnd {
			a, b := metricValues(runsA, m.Name), metricValues(runsB, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t(not reported)\t\t\t\t\n", w.Name, m.Name)
				continue
			}
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, m.Name, am, a1, a3, bm, b1, b3, 100*ratio(bm-am, am), 100*m.Bound,
				verdict(a, b, m.Better == "lower", m.Bound))
		}
	}
	return tw.Flush()
}

func metricValues(runs []resultLine, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// verdict judges B's runs against A's for one metric. A change is worse
// when B's median is worse than A's by more than the bound; unresolved
// when A's own spread (interquartile range over median) exceeds the bound,
// unless every run of B is better than every run of A; better when the
// medians differ by more than A's spread and B wins nine tenths of all
// (a, b) pairs; flat otherwise.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	a1, am, a3 := quartiles(a)
	_, bm, _ := quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	worse := ratio(bm-am, am) // relative change of the median, positive when worse
	if !lowerBetter {
		worse = -worse
	}
	spread := ratio(a3-a1, am)
	wins := 0
	for _, x := range b {
		for _, y := range a {
			if better(x, y) {
				wins++
			}
		}
	}
	allBetter := wins == len(a)*len(b)
	switch {
	case allBetter && -worse > spread:
		return "better"
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "worse"
	case -worse > spread && 10*wins >= 9*len(a)*len(b):
		return "better"
	}
	return "flat"
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
