package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cpq/internal/telemetry"
)

// pqbench runs one command line in process.
func pqbench(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// header returns the fields of the first output line whose first field is
// first: a table's column header.
func header(out, first string) []string {
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == first {
			return f
		}
	}
	return nil
}

var engineered = []string{"multiq", "multiq-s4-b8", "klsm4096"}

// TestModes runs every mode at tiny sizes and checks that each prints its
// table's columns, with -queues engineered expanded in every mode.
func TestModes(t *testing.T) {
	tiny := []string{"-queues", "engineered", "-threads", "1,2", "-prefill", "200"}
	cases := []struct {
		name  string
		args  []string
		first string   // first field of the column header
		cols  []string // the column header's fields
		lines []string // further lines the output must contain
	}{
		{"figure", append([]string{"-figure", "4a", "-duration", "5ms", "-reps", "1"}, tiny...),
			"threads", append([]string{"threads"}, engineered...),
			[]string{"# figure 4a  workload=uniform keys=uniform32 prefill=200 duration=5ms reps=1",
				"# cells are MOps/s (insertions+deletions per second / 1e6), mean ±95% CI"}},
		{"latency-csv", append([]string{"-ops", "300", "-csv"}, tiny...),
			"threads,queue,seconds,p50_ns,p99_ns", []string{"threads,queue,seconds,p50_ns,p99_ns"},
			[]string{"# workload=uniform keys=uniform32 prefill=200 ops=300"}},
		{"churn", append([]string{"-churn", "40", "-reps", "1"}, tiny...),
			"slots", append([]string{"slots"}, engineered...),
			[]string{"# churn goroutines=40 workload=uniform keys=uniform32 prefill=200 reps=1"}},
		{"table", append([]string{"-table", "2a", "-ops", "300"}, tiny...),
			"queue", []string{"queue", "1", "threads", "2", "threads"},
			[]string{"# workload=uniform keys=uniform32 prefill=200 ops/thread=300 batch=1",
				"# cells are mean rank (stddev); rank 0 = exact minimum"}},
		{"verify", append([]string{"verify", "-ops", "300", "-prefill", "200"}, tiny[:2]...),
			"queue", []string{"queue", "claimed", "bound", "max", "rank", "mean", "max", "definite", "violations", "verdict"},
			[]string{"all claimed bounds hold: no deletion's definite rank exceeds its queue's bound"}},
		{"chaos", []string{"chaos", "-queues", "engineered", "-threads", "2", "-ops", "300", "-batch", "4", "-pool"},
			"queue", []string{"queue", "run", "verdict"},
			[]string{"chaos: -threads 2 -ops 300 -batch 4 -pool",
				"chaos: all invariants held under fault injection"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, errOut, code := pqbench(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, errOut)
			}
			if got := header(out, tc.first); !slices.Equal(got, tc.cols) {
				t.Fatalf("column header %q, want %q; output:\n%s", got, tc.cols, out)
			}
			for _, want := range tc.lines {
				if !strings.Contains(out, want+"\n") {
					t.Errorf("output lacks line %q:\n%s", want, out)
				}
			}
			if tc.name == "latency-csv" {
				return // CSV rows name the queues instead of columns
			}
			for _, q := range engineered {
				if !strings.Contains(out, q) {
					t.Errorf("output lacks queue %s of alias engineered:\n%s", q, out)
				}
			}
		})
	}
	// -telemetry prints each queue's own algorithm counters and the
	// sampled insert and delete-min latencies, and no line counting batch
	// traffic, pool, socket or WAL events.
	t.Run("telemetry", func(t *testing.T) {
		t.Cleanup(func() {
			telemetry.Enabled = false
			telemetry.Reset()
		})
		out, errOut, code := pqbench(t, "-figure", "4a", "-queues", "klsm128,multiq-s4-b8", "-threads", "2",
			"-batch", "8", "-duration", "5ms", "-reps", "1", "-prefill", "200", "-telemetry")
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, errOut)
		}
		if !strings.Contains(out, "\n# telemetry (") {
			t.Fatalf("no telemetry section:\n%s", out)
		}
		sections := map[string][]string{} // queue → first fields of its lines
		queue := ""
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			switch {
			case len(f) == 0:
			case f[0] == "##":
				queue = strings.TrimPrefix(f[2], "queue=")
			case queue != "":
				sections[queue] = append(sections[queue], f[0])
			}
		}
		for q, own := range map[string][]string{
			"klsm128":      {"cas-take-fail", "shared-run-take", "pivot-local-win", "local-merge", "local-evict"},
			"multiq-s4-b8": {"mq-stick-reset", "mq-ins-flush", "mq-del-refill", "mq-sweep"},
		} {
			names := sections[q]
			if !slices.Contains(names, "insert") || !slices.Contains(names, "delete-min") {
				t.Errorf("%s: no insert and delete-min latency lines in %q", q, names)
			}
			if !slices.ContainsFunc(names, func(n string) bool { return slices.Contains(own, n) }) {
				t.Errorf("%s: none of its counters %q in %q", q, own, names)
			}
			for _, name := range names {
				for _, gone := range []string{"batch-", "pool-", "net-", "dur-"} {
					if strings.HasPrefix(name, gone) {
						t.Errorf("%s: unexpected counter line %q", q, name)
					}
				}
			}
		}
	})
}

// TestGridReport runs the whole grid at tiny sizes into -out and checks the
// report's section headings and table headers.
func TestGridReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.md")
	_, errOut, code := pqbench(t, "-figure", "all", "-table", "all", "-queues", "globallock,multiq",
		"-threads", "1", "-duration", "2ms", "-reps", "1", "-prefill", "100",
		"-qthreads", "1,2", "-qops", "100", "-qprefill", "100", "-out", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	report := string(b)
	for _, want := range []string{
		"# Reproduction report",
		"## Throughput (MOps/s, mean ±95% CI)",
		"### Figure 4a: uniform workload, uniform32 keys",
		"### Figure 8c: alternating workload, descending keys",
		"| threads | globallock | multiq |",
		"## Rank error (mean rank, stddev in parentheses; 0 = strict)",
		"### Table 2a: uniform workload, uniform32 keys",
		"### Table 5c: alternating workload, descending keys",
		"| queue | 1 threads | 2 threads |",
	} {
		if !strings.Contains(report, want+"\n") {
			t.Errorf("report lacks line %q", want)
		}
	}
	if n := strings.Count(report, "\n### "); n != 22 {
		t.Errorf("%d panel sections, want 22 (11 figures + 11 tables)", n)
	}
}

// TestUsageErrors checks that every usage error exits 2 and names the
// value as given.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-figure", "9z"}, `unknown figure "9z"`},
		{[]string{"-table", "3z"}, `unknown table "3z"`},
		{[]string{"-threads", "0"}, `bad thread count "0"`},
		{[]string{"-table", "1", "-threads", "2,0"}, `bad thread count "0"`},
		{[]string{"verify", "-threads", "0"}, "bad thread count 0"},
		{[]string{"chaos", "-threads", "0"}, "bad thread count 0"},
		{[]string{"-queues", "engineered,nope"}, `unknown queue "nope"`},
		{[]string{"verify", "-queues", "nope"}, `unknown queue "nope"`},
		{[]string{"-batch", "0"}, "invalid -batch 0"},
		{[]string{"chaos", "-batch", "0"}, "invalid -batch 0"},
		{[]string{"-altbatch", "0"}, "invalid -altbatch 0"},
		{[]string{"-figure", "4a", "-table", "2a"}, `-figure "4a" with -table "2a"`},
		{[]string{"bogus"}, `unknown mode "bogus"`},
		{[]string{"-keys", "nope"}, "nope"},
		{[]string{"chaos", "-prefill", "5"}, "flag provided but not defined: -prefill"},
		{[]string{"-figure", "4a", "extra"}, `unexpected argument "extra"`},
	} {
		_, errOut, code := pqbench(t, tc.args...)
		if code != 2 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%q: exit %d, stderr %q; want exit 2 naming %q", tc.args, code, errOut, tc.want)
		}
	}
}

// TestChaosReplayLine checks that a replay line names this command and
// parses back to the run it replays.
func TestChaosReplayLine(t *testing.T) {
	m, err := parse([]string{"chaos", "-threads", "3", "-ops", "1500", "-batch", "8", "-pool"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	line := m.(*checkRun).replayLine("klsm128", 0x9e3779b97f4a7c15)
	args := strings.Fields(line)
	if args[0] != "pqbench" {
		t.Fatalf("replay line %q does not name pqbench", line)
	}
	back, err := parse(args[1:], io.Discard)
	if err != nil {
		t.Fatalf("replay line %q: %v", line, err)
	}
	got := back.(*checkRun)
	if !got.chaos || !slices.Equal(got.queues, []string{"klsm128"}) || got.threads != 3 ||
		got.ops != 1500 || got.batch != 8 || !got.pool || got.seed != 0x9e3779b97f4a7c15 {
		t.Fatalf("replay line %q parses to %+v", line, *got)
	}
}

// TestCellDefaults checks that a -table cell takes the rank benchmark's
// defaults for -threads, -ops and -prefill, and a figure cell the
// throughput benchmark's.
func TestCellDefaults(t *testing.T) {
	for _, tc := range []struct {
		args         []string
		threads      []int
		ops, prefill int
	}{
		{[]string{"-figure", "4a"}, []int{1, 2, 4, 8}, 0, 1_000_000},
		{[]string{"-table", "2a"}, []int{2, 4, 8}, 50_000, 100_000},
		{[]string{"-table", "2a", "-threads", "8", "-ops", "7"}, []int{8}, 7, 100_000},
	} {
		m, err := parse(tc.args, io.Discard)
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		c := m.(*cellsRun)
		if !slices.Equal(c.threads, tc.threads) || c.ops != tc.ops || c.prefill != tc.prefill {
			t.Errorf("%q: threads %v ops %d prefill %d, want %v %d %d",
				tc.args, c.threads, c.ops, c.prefill, tc.threads, tc.ops, tc.prefill)
		}
	}
}
