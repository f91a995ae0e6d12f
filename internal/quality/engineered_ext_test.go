package quality_test

import (
	"math"
	"testing"

	"cpq/internal/keys"
	"cpq/internal/multiq"
	"cpq/internal/pq"
	"cpq/internal/quality"
	"cpq/internal/rng"
	"cpq/internal/workload"
)

// TestEngineeredRankErrorFinite runs the full quality benchmark against the
// engineered MultiQueue (stickiness + buffers): the run must replay a
// non-trivial number of deletions and report a finite mean rank — buffers
// are flushed before the log is merged, so no item is lost or duplicated.
func TestEngineeredRankErrorFinite(t *testing.T) {
	res := quality.Run(quality.Config{
		NewQueue: func(threads int) pq.Queue {
			return multiq.NewEngineered(2, threads, 4, 8)
		},
		Threads:      4,
		OpsPerThread: 4000,
		Workload:     workload.Uniform,
		KeyDist:      keys.Uniform32,
		Prefill:      2000,
		Seed:         13,
	})
	if res.Deletions == 0 {
		t.Fatal("no deletions replayed")
	}
	if math.IsNaN(res.MeanRank) || math.IsInf(res.MeanRank, 0) || res.MeanRank < 0 {
		t.Fatalf("mean rank %v is not finite", res.MeanRank)
	}
	if math.IsNaN(res.StddevRank) || math.IsInf(res.StddevRank, 0) {
		t.Fatalf("stddev rank %v is not finite", res.StddevRank)
	}
}

// TestEngineeredReplayLossless drives the engineered MultiQueue through a
// logged insert/delete history and drains it completely: every logged
// deletion must find its item in the replay tree (Deletions == total), i.e.
// buffering neither loses nor duplicates items in the reconstructed history.
func TestEngineeredReplayLossless(t *testing.T) {
	q := multiq.NewEngineered(2, 1, 4, 8)
	h := q.Handle()
	r := rng.New(3)
	var rec quality.Recorder
	lg := rec.Log(0)
	kv := make([]pq.KV, 1)
	const n = 5000
	for i := 0; i < n; i++ {
		kv[0].Key = r.Uint64() % 10000
		lg.Insert(h, kv)
		if i%3 == 0 {
			lg.DeleteMin(h, kv)
		}
	}
	pq.Flush(h)
	for lg.DeleteMin(h, kv) == 1 {
	}
	res := quality.Replay(rec.Events())
	if res.Deletions != n {
		t.Fatalf("replayed %d deletions of %d inserted items — item lost or duplicated", res.Deletions, n)
	}
}
