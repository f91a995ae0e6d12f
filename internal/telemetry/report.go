package telemetry

import (
	"fmt"
	"strings"
)

// Table renders the snapshot's nonzero counters as an aligned text table,
// one counter per line:
//
//	cas-publish-retry      1234   0.0123/op   SLSM state-publish CAS lost, merge redone
//
// ops, when nonzero, adds the per-operation rate column (events divided by
// the measured phase's completed operations). Every line is prefixed with
// indent. An all-zero snapshot renders a single explanatory line — for a
// strict queue that is the expected output, not an error.
func (s Snapshot) Table(indent string, ops uint64) string {
	var b strings.Builder
	for c := Counter(0); c < NumCounters; c++ {
		v := s.Counts[c]
		if v == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s%-20s %12d", indent, c.Name(), v)
		if ops > 0 {
			fmt.Fprintf(&b, "  %9.4f/op", float64(v)/float64(ops))
		}
		fmt.Fprintf(&b, "   %s\n", c.Help())
	}
	if b.Len() == 0 {
		return indent + "(no internal events recorded — queue has no instrumented paths or they never fired)\n"
	}
	return b.String()
}

// LatencySummary renders one line per op kind with sampled-count and
// percentiles, e.g.
//
//	insert   n=62500  p50≤256ns  p99≤2.0µs  p99.9≤16.4µs
//
// Histograms are empty unless the harness sampled latencies (telemetry
// enabled); then the summary is the empty string.
func (s Snapshot) LatencySummary(indent string) string {
	var b strings.Builder
	for _, row := range []struct {
		name string
		h    HistSnapshot
	}{{"insert", s.InsertLat}, {"delete-min", s.DeleteLat}} {
		if row.h.Count() == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s%-10s n=%-9d p50≤%-8s p99≤%-8s p99.9≤%s\n",
			indent, row.name, row.h.Count(),
			nsString(uint64(row.h.Percentile(50))),
			nsString(uint64(row.h.Percentile(99))),
			nsString(uint64(row.h.Percentile(99.9))))
	}
	return b.String()
}
