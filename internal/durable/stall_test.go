package durable_test

import (
	"sort"
	"testing"
	"time"

	"cpq/internal/durable"
	"cpq/internal/pq"
)

// stallSide is one side of the stall measurement: a durable queue on a
// real store under its own directory, and the latencies of its
// acknowledged inserts so far.
type stallSide struct {
	q   *durable.Queue
	h   pq.Handle
	n   uint64
	lat []time.Duration
}

func openStallSide(t *testing.T, snapshotEvery int) *stallSide {
	t.Helper()
	q, err := durable.Wrap(newInner(t, "klsm128"), durable.Options{
		Dir:           t.TempDir(),
		SnapshotEvery: snapshotEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &stallSide{q: q, h: q.Handle()}
}

// insert runs n acknowledged inserts, recording each one's latency, and
// then waits for the snapshots they started, so that none runs into the
// other side's next block.
func (s *stallSide) insert(n int) {
	for ; n > 0; n-- {
		v := s.n
		s.n++
		start := time.Now()
		s.h.Insert(v*2654435761%1_000_003, v)
		s.lat = append(s.lat, time.Since(start))
	}
	s.q.DrainSnapshots()
}

// percentiles closes the side's queue and returns the p50 and p99 of its
// recorded latencies.
func (s *stallSide) percentiles(t *testing.T) (p50, p99 time.Duration) {
	t.Helper()
	if err := s.q.Close(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(s.lat, func(i, j int) bool { return s.lat[i] < s.lat[j] })
	return s.lat[len(s.lat)/2], s.lat[len(s.lat)*99/100]
}

// TestSnapshotStallP99 is the producer-stall measurement EXPERIMENTS.md
// quotes: p99 acknowledged-insert latency with snapshots firing
// constantly versus with snapshots off, on a real store with real
// fsyncs. Under the concurrent snapshot protocol the snapshotter never
// holds the op mutex past one seal, so the two tails must be the same
// order of magnitude; the old seal→drain→write protocol multiplies the
// snapshotting tail by the full drain+write time. The two sides run
// alternately, in blocks of 500 inserts within one run (which goes
// first alternates too), so both p99s see the same host: measured one
// after the other, the steady p99 the bound divides by swung with the
// host's load. The assert is a loose 10x (shared-CI timing), the
// acceptance reading (within 2x) comes from the logged numbers on a
// quiet host.
func TestSnapshotStallP99(t *testing.T) {
	if testing.Short() {
		t.Skip("real fsyncs; skipped in -short")
	}
	const blocks, perBlock = 8, 500
	steady := openStallSide(t, 0)
	// Every 50 logged ops: snapshots overlap each of this side's blocks.
	snap := openStallSide(t, 50)
	// Warm both: first-touch costs (directory creation, the first
	// segment) land in neither measurement.
	for _, s := range []*stallSide{steady, snap} {
		s.insert(64)
		s.lat = s.lat[:0]
	}
	for b := 0; b < blocks; b++ {
		first, second := steady, snap
		if b%2 == 1 {
			first, second = snap, steady
		}
		first.insert(perBlock)
		second.insert(perBlock)
	}
	steady50, steady99 := steady.percentiles(t)
	snap50, snap99 := snap.percentiles(t)
	t.Logf("steady-state: p50=%v p99=%v", steady50, steady99)
	t.Logf("snapshotting: p50=%v p99=%v (p99 ratio %.2fx)",
		snap50, snap99, float64(snap99)/float64(steady99))
	if snap99 > 10*steady99 {
		t.Errorf("p99 under snapshots = %v, steady = %v: producers are stalling",
			snap99, steady99)
	}
}
