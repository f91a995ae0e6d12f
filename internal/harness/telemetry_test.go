package harness

import (
	"sync/atomic"
	"testing"
	"time"

	"cpq/internal/core"
	"cpq/internal/pq"
	"cpq/internal/telemetry"
	"cpq/internal/workload"
)

func klsmFactory(threads int) pq.Queue { return core.NewKLSM(128) }

func withTelemetry(t *testing.T, f func()) {
	t.Helper()
	prev := telemetry.Enabled
	telemetry.Enabled = true
	defer func() {
		telemetry.Enabled = prev
		telemetry.Reset()
	}()
	telemetry.Reset()
	f()
}

func TestRunTelemetryDisabled(t *testing.T) {
	if telemetry.Enabled {
		t.Fatal("test requires the default Enabled=false")
	}
	res := Run(quickCfg(2))
	if res.Telemetry != nil {
		t.Error("disabled run produced a telemetry snapshot")
	}
	if res.LatencyP50 != 0 {
		t.Error("disabled run populated latency percentiles")
	}
}

func TestRunTelemetryEnabled(t *testing.T) {
	withTelemetry(t, func() {
		cfg := quickCfg(2)
		cfg.NewQueue = klsmFactory
		res := Run(cfg)
		if res.Telemetry == nil {
			t.Fatal("enabled run produced no telemetry snapshot")
		}
		if res.Telemetry.Zero() {
			t.Error("k-LSM run recorded no internal events")
		}
		if res.Telemetry.Counts[telemetry.LocalMerge] == 0 {
			t.Error("k-LSM run recorded no local merges")
		}
		if res.Telemetry.InsertLat.Count() == 0 || res.Telemetry.DeleteLat.Count() == 0 {
			t.Error("latency histograms empty")
		}
	})
}

func TestRunOpsTelemetryEnabled(t *testing.T) {
	withTelemetry(t, func() {
		cfg := quickCfg(2)
		cfg.NewQueue = klsmFactory
		cfg.Ops = 5000
		res := Run(cfg)
		if res.Telemetry == nil || res.Telemetry.Zero() {
			t.Fatal("op-counted run recorded no telemetry")
		}
	})
}

func TestRunRepeatedAggregatesTelemetry(t *testing.T) {
	withTelemetry(t, func() {
		cfg := quickCfg(1)
		cfg.NewQueue = klsmFactory
		cfg.Duration = 10 * time.Millisecond
		s := RunRepeated(cfg, 2)
		if s.Telemetry == nil {
			t.Fatal("series has no aggregated telemetry")
		}
		var sum uint64
		for _, r := range s.Results {
			sum += r.Telemetry.Counts[telemetry.LocalMerge]
		}
		if got := s.Telemetry.Counts[telemetry.LocalMerge]; got != sum {
			t.Errorf("series LocalMerge = %d, want sum of reps %d", got, sum)
		}
	})
}

// TestDisabledTelemetryZeroAllocPerOp asserts the benchmark's hot loop —
// the worker loop every run drives, with its latency sampling and the
// telemetry guard branches — allocates nothing per operation while
// telemetry is off, at widths 1 and 8. The worker is op-counted, so it
// times every 16th call into its preallocated exact samples. The k-LSM
// allocates internally in amortized bursts (block pools), so the loop
// runs the alternating workload against a prefilled GlobalLock heap whose
// backing array has stabilized: any allocation seen here would come from
// the loop itself.
func TestDisabledTelemetryZeroAllocPerOp(t *testing.T) {
	if telemetry.Enabled {
		t.Fatal("test requires the default Enabled=false")
	}
	for _, width := range []int{1, 8} {
		cfg := quickCfg(1)
		cfg.Workload = workload.Alternating
		cfg.OpBatch = width
		cfg.Ops = 1 << 20 // sizes the samples for every call below
		q := cfg.NewQueue(1)
		PrefillQueue(q, cfg)
		w := newWorker(q.Handle(), cfg, 0, true)
		var never atomic.Bool
		w.run(&never, 4096) // warm up: let the heap's array reach steady size
		if n := testing.AllocsPerRun(1000, func() {
			w.run(&never, uint64(2*width)) // one insert call, one delete call
		}); n != 0 {
			t.Errorf("width %d: disabled telemetry worker loop allocates %v per insert+delete pair, want 0", width, n)
		}
	}
}
