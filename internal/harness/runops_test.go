package harness

import (
	"testing"
	"time"

	"cpq/internal/keys"
	"cpq/internal/workload"
)

func TestRunOpsExactCount(t *testing.T) {
	cfg := quickCfg(3)
	cfg.Ops = 1000
	res := Run(cfg)
	if res.Ops != 3000 {
		t.Fatalf("Ops = %d, want 3000", res.Ops)
	}
	if res.Duration <= 0 {
		t.Fatal("non-positive duration")
	}
	for w, n := range res.PerThread {
		if n != 1000 {
			t.Fatalf("worker %d performed %d ops", w, n)
		}
	}
}

func TestRunOpsFloor(t *testing.T) {
	cfg := quickCfg(1)
	cfg.Ops = 1 // the smallest op-counted run
	res := Run(cfg)
	if res.Ops != 1 {
		t.Fatalf("Ops = %d, want 1", res.Ops)
	}
}

func TestRunOpsHoldModel(t *testing.T) {
	// The strict hold-model distribution needs Observe feedback from the
	// run loop; this exercises that path end-to-end.
	cfg := quickCfg(2)
	cfg.KeyDist = keys.HoldAscending
	cfg.Workload = workload.Alternating
	cfg.Prefill = 100
	cfg.Ops = 2000
	res := Run(cfg)
	if res.Ops != 4000 {
		t.Fatalf("Ops = %d", res.Ops)
	}
	if res.EmptyDeletes > res.Ops/4 {
		t.Fatalf("%d empty deletes out of %d", res.EmptyDeletes, res.Ops)
	}
}

func TestRunBatchedAlternating(t *testing.T) {
	cfg := quickCfg(2)
	cfg.Workload = workload.Alternating
	cfg.BatchSize = 32
	cfg.Duration = 20 * time.Millisecond
	res := Run(cfg)
	if res.Ops == 0 {
		t.Fatal("no ops under batched alternating workload")
	}
}

func TestRunOpsLatencySamples(t *testing.T) {
	cfg := quickCfg(2)
	cfg.Ops = 5000
	res := Run(cfg)
	if res.LatencyP50 <= 0 || res.LatencyP99 < res.LatencyP50 {
		t.Fatalf("latency percentiles implausible: p50=%v p99=%v",
			res.LatencyP50, res.LatencyP99)
	}
}

func TestRunLeavesLatencyZero(t *testing.T) {
	cfg := quickCfg(1)
	res := Run(cfg)
	if res.LatencyP50 != 0 || res.LatencyP99 != 0 {
		t.Fatal("duration-mode Run populated latency fields")
	}
}
