// Package telemetry is the suite's zero-dependency instrumentation layer:
// sharded per-handle atomic counters for the queues' internal events (CAS
// retries, spy steals, SLSM republishes, buffer flushes, ...) and
// fixed-bucket log₂ latency histograms for Insert and DeleteMin.
//
// The paper's contribution is measurement, and so is this package's: a
// throughput scalar alone cannot distinguish "fast because uncontended"
// from "fast because it starves a code path", and a claim like "capped
// backoff on the optimistic CAS publish" is unverifiable unless the
// benchmark can count publish retries. Every counter here corresponds to
// one such claim-bearing event; DESIGN.md §5 documents each counter's
// meaning and its exact emission site.
//
// # Design
//
// Instrumentation must not perturb what it measures, so the layer follows
// three rules:
//
//   - Sharding: every handle (and every harness worker) owns a private
//     *Shard and increments only its own counters, so enabling telemetry
//     adds no inter-thread cache-line traffic. Snapshot aggregates the
//     shards only after workers have quiesced.
//   - No allocation on the operation path: Inc and Observe never allocate
//     (guarded by testing.AllocsPerRun); shards are allocated once at
//     handle creation.
//   - One branch when disabled: every instrumentation site is behind the
//     package-level Enabled flag, so a disabled run pays a single
//     predictable branch per event site (measured ≤2% on the fig-4a
//     8-thread cell, see DESIGN.md §5).
//
// Enabled is a plain bool by design: it must be set once, before any
// instrumented queue or worker is created (the CLIs set it in main before
// the first run), and never toggled while workers run. Toggling it
// mid-run is a data race — the flag buys its zero cost by not being
// atomic.
//
// # Usage
//
//	telemetry.Enabled = true            // before creating queues
//	before := telemetry.Capture()
//	... run the measured phase ...
//	delta := telemetry.Capture().Diff(before)
//	fmt.Print(delta.Table("  ", totalOps))
package telemetry

import (
	"sync"
	"sync/atomic"
)

// Enabled turns instrumentation on. It must be set before instrumented
// queues or workers are created and must not be toggled while they run
// (see the package documentation). When false — the default — every
// instrumentation site reduces to one branch and shards are not
// registered, so idle cost is zero allocation and zero aggregation state.
var Enabled bool

// Counter identifies one instrumented event. The constants below are the
// complete set; NumCounters bounds per-shard storage. Each counter's
// meaning and emission site (file:function) is documented on its constant
// and, in prose, in DESIGN.md §5.
type Counter int

const (
	// CASPublishRetry counts lost optimistic state-publish CASes on the
	// SLSM followed by a re-merge (core/slsm.go:insertBatch). A storm of
	// these is exactly what the capped publish backoff damps.
	CASPublishRetry Counter = iota
	// CASItemTakeFail counts failed item take() attempts: another thread
	// logically deleted the item first (core/klsm.go:DeleteMin via
	// localLSM.takeAtLocked, core/slsm.go:takeRun). Most failures are a
	// short-circuit load finding the item already taken, not a lost CAS
	// proper — at large k this counter is dominated by scans over stale
	// entries in the pivot range, making it the pivot-staleness signal.
	CASItemTakeFail
	// SLSMRepublish counts fresh pivot ranges published after the current
	// range was found exhausted (core/slsm.go:takeRun, peekCandidate).
	// Ascending-key workloads at large k collapse into republish storms;
	// this counter makes that visible (EXPERIMENTS.md "How to read a
	// report").
	SLSMRepublish
	// SLSMRepublishFail counts republish CASes lost to a concurrent
	// publisher (core/slsm.go:takeRun, peekCandidate).
	SLSMRepublishFail
	// SharedRunTake counts batched pivot runs taken from the SLSM under
	// one state load (core/klsm.go:DeleteMin via slsm.takeRun).
	SharedRunTake
	// SharedRunItems counts items obtained through those runs; divided by
	// SharedRunTake it yields the mean run length (max sharedRunMax).
	SharedRunItems
	// RunBufferFlush counts non-empty shared-run buffers returned to the
	// SLSM when a worker's measured phase ends (core/klsm.go:Flush).
	RunBufferFlush
	// PivotLocalWin counts DeleteMins where the binary-searched pivot
	// prefix showed no shared item below the local minimum, so the local
	// candidate won without touching shared state (core/slsm.go:takeRun).
	PivotLocalWin
	// LocalMerge counts local-LSM tail merges — two blocks merged into one
	// to restore the class invariant (core/local.go:mergeTailLocked).
	LocalMerge
	// LocalEvict counts local blocks evicted into the SLSM on overflow
	// past k items (core/klsm.go:Insert).
	LocalEvict
	// SpySteal counts successful spy rounds: a handle with an empty local
	// component copied another handle's items (core/klsm.go:spy).
	SpySteal
	// SpyItems counts the items copied by those rounds.
	SpyItems
	// MQStickReset counts abandoned sticky sub-queue selections in the
	// engineered MultiQueue — a try-lock failure or a drained target forced
	// a resample (multiq/engineered.go:lockForInsert, refillLocked).
	MQStickReset
	// MQInsFlush counts insertion-buffer overflows published to a
	// sub-queue under one lock (multiq/engineered.go:Insert, Flush).
	MQInsFlush
	// MQDelRefill counts deletion-buffer refills — batched pops of up to b
	// items under one lock (multiq/engineered.go:refillLocked).
	MQDelRefill
	// MQSweep counts full sub-queue sweeps, the MultiQueue's emptiness
	// oracle and sampling fallback (multiq/multiq.go:sweepSubqueues).
	MQSweep
	// SprayMiss counts spray walks that found no claimable node and
	// retried (spray/spray.go:DeleteMin).
	SprayMiss
	// SprayFallback counts DeleteMins that fell back to the strict
	// head scan after exhausting their spray attempts
	// (spray/spray.go:DeleteMin).
	SprayFallback
	// LindenDeadWalk counts dead (level-0-marked) nodes walked over by the
	// Lindén delete_min before it claimed a live node or hit the end
	// (linden/linden.go:DeleteMin; one batched Add per call). Divided by
	// DeleteMin count it yields the mean dead-prefix length, the quantity
	// BoundOffset trades against restructure frequency.
	LindenDeadWalk
	// LindenRestructure counts batch physical unlinks of the dead prefix,
	// triggered when a delete_min walks past BoundOffset dead nodes
	// (linden/linden.go:restructure).
	LindenRestructure
	// LindenSpliceRetry counts failed validated level-0 splice CASes on the
	// Lindén insert, each followed by a fresh find
	// (linden/linden.go:Insert; one batched Add per call).
	LindenSpliceRetry
	// LotanClaimFail counts head-scan steps of the Shavit-Lotan delete_min
	// that could not claim a node — already claimed, already dead, or a
	// lost claim CAS (lotan/lotan.go:DeleteMin; one batched Add per call).
	// This is the head-contention signal the Lindén batching avoids.
	LotanClaimFail

	// NumCounters bounds per-shard counter storage; not a counter itself.
	NumCounters
)

// counterMeta pairs a counter's short table name with a one-line meaning.
var counterMeta = [NumCounters]struct{ name, help string }{
	CASPublishRetry:   {"cas-publish-retry", "SLSM state-publish CAS lost, merge redone"},
	CASItemTakeFail:   {"cas-take-fail", "item take() failed: already taken by another thread"},
	SLSMRepublish:     {"slsm-republish", "fresh pivot range published after exhaustion"},
	SLSMRepublishFail: {"slsm-republish-fail", "republish CAS lost to concurrent publisher"},
	SharedRunTake:     {"shared-run-take", "batched pivot runs taken under one state load"},
	SharedRunItems:    {"shared-run-items", "items obtained through shared runs"},
	RunBufferFlush:    {"run-buffer-flush", "end-of-phase shared-run buffers returned to SLSM"},
	PivotLocalWin:     {"pivot-local-win", "pivot prefix empty below bound; local candidate won"},
	LocalMerge:        {"local-merge", "local-LSM tail merges"},
	LocalEvict:        {"local-evict", "local blocks evicted into the SLSM"},
	SpySteal:          {"spy-steal", "successful spy rounds (victim items copied)"},
	SpyItems:          {"spy-items", "items copied by spy rounds"},
	MQStickReset:      {"mq-stick-reset", "sticky sub-queue abandoned (contended or drained)"},
	MQInsFlush:        {"mq-ins-flush", "insertion-buffer flushes to a sub-queue"},
	MQDelRefill:       {"mq-del-refill", "deletion-buffer batch refills"},
	MQSweep:           {"mq-sweep", "full sub-queue sweeps (emptiness oracle)"},
	SprayMiss:         {"spray-miss", "spray walks that found no claimable node"},
	SprayFallback:     {"spray-fallback", "DeleteMins that fell back to the strict head scan"},
	LindenDeadWalk:    {"linden-dead-walk", "dead prefix nodes walked over by delete_min"},
	LindenRestructure: {"linden-restructure", "batch physical unlinks of the dead prefix"},
	LindenSpliceRetry: {"linden-splice-retry", "lost validated level-0 splice CASes on insert"},
	LotanClaimFail:    {"lotan-claim-fail", "head-scan steps that could not claim a node"},
}

// Name returns the counter's short table identifier, e.g. "slsm-republish".
func (c Counter) Name() string { return counterMeta[c].name }

// Help returns the counter's one-line description.
func (c Counter) Help() string { return counterMeta[c].help }

// Shard holds one handle's (or one harness worker's) private counters and
// latency histograms. Only the owner increments it; Capture reads it, so
// the fields are atomics — uncontended atomic adds on a line no other
// thread writes, which keeps the enabled path cheap and the race detector
// quiet. The trailing pad keeps a neighbouring allocation off the last
// counter's cache line.
type Shard struct {
	counts    [NumCounters]atomic.Uint64
	insertLat Histogram
	deleteLat Histogram
	_         [8]uint64
}

// registry is the global shard list Capture aggregates over. Shards are
// only registered while Enabled, so a disabled process keeps no telemetry
// state at all. The slice is append-only; Capture snapshots it under mu
// and reads shard contents outside it.
var registry struct {
	mu     sync.Mutex
	shards []*Shard
}

// disabledShard is handed out by NewShard while telemetry is off: one
// shared sink, never registered, so disabled handles cost no allocation
// and no registry growth. Its contents are never read.
var disabledShard Shard

// NewShard returns a fresh registered shard for one owner, or the shared
// unregistered sink when telemetry is disabled. Handles call this once at
// creation time; it must not be called on the operation path.
func NewShard() *Shard {
	if !Enabled {
		return &disabledShard
	}
	s := &Shard{}
	registry.mu.Lock()
	registry.shards = append(registry.shards, s)
	registry.mu.Unlock()
	return s
}

// Reset drops every registered shard. Shards handed out earlier keep
// working but are no longer aggregated; tests use this for isolation.
func Reset() {
	registry.mu.Lock()
	registry.shards = nil
	registry.mu.Unlock()
}

// Inc adds 1 to counter c. Disabled: one branch, no write, no allocation.
// A nil shard is a valid sink (internal code paths exercised by tests
// without a handle pass nil); the nil check only runs when enabled.
func (s *Shard) Inc(c Counter) {
	if !Enabled {
		return
	}
	if s == nil {
		return
	}
	s.counts[c].Add(1)
}

// Add adds n to counter c (batch sites: run lengths, spy item counts).
// Nil-safe like Inc.
func (s *Shard) Add(c Counter, n uint64) {
	if !Enabled {
		return
	}
	if s == nil {
		return
	}
	s.counts[c].Add(n)
}

// ObserveInsert records one Insert latency in nanoseconds. Nil-safe like Inc.
func (s *Shard) ObserveInsert(ns int64) {
	if !Enabled {
		return
	}
	if s == nil {
		return
	}
	s.insertLat.observe(ns)
}

// ObserveDelete records one DeleteMin latency in nanoseconds. Nil-safe like Inc.
func (s *Shard) ObserveDelete(ns int64) {
	if !Enabled {
		return
	}
	if s == nil {
		return
	}
	s.deleteLat.observe(ns)
}

// Snapshot is an aggregated, immutable view of all registered shards at
// one point in time. Two snapshots bracketing a measured phase Diff into
// the phase's own event counts — the harness takes one after prefill and
// one after the workers join, so prefill activity never pollutes the
// measured numbers.
type Snapshot struct {
	Counts    [NumCounters]uint64
	InsertLat HistSnapshot
	DeleteLat HistSnapshot
}

// Capture aggregates every registered shard into a Snapshot. It must only
// run while shard owners are quiescent relative to the numbers being
// compared (between runs, after WaitGroup joins); the per-word loads are
// atomic, so a mid-run Capture is safe but reflects a torn moment.
func Capture() Snapshot {
	registry.mu.Lock()
	shards := registry.shards
	registry.mu.Unlock()
	var snap Snapshot
	for _, s := range shards {
		for c := Counter(0); c < NumCounters; c++ {
			snap.Counts[c] += s.counts[c].Load()
		}
		snap.InsertLat.accumulate(&s.insertLat)
		snap.DeleteLat.accumulate(&s.deleteLat)
	}
	return snap
}

// Diff returns the per-counter and per-bucket difference s - prev.
// Counters are monotone, so with prev captured before s the result is the
// event count of the bracketed interval.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	var d Snapshot
	for c := Counter(0); c < NumCounters; c++ {
		d.Counts[c] = s.Counts[c] - prev.Counts[c]
	}
	d.InsertLat = s.InsertLat.Diff(prev.InsertLat)
	d.DeleteLat = s.DeleteLat.Diff(prev.DeleteLat)
	return d
}

// Merge returns the element-wise sum of two snapshots (aggregating
// repetition diffs into a per-series total).
func (s Snapshot) Merge(o Snapshot) Snapshot {
	var m Snapshot
	for c := Counter(0); c < NumCounters; c++ {
		m.Counts[c] = s.Counts[c] + o.Counts[c]
	}
	m.InsertLat = s.InsertLat.Merge(o.InsertLat)
	m.DeleteLat = s.DeleteLat.Merge(o.DeleteLat)
	return m
}

// Zero reports whether the snapshot holds no events at all.
func (s Snapshot) Zero() bool {
	for _, v := range s.Counts {
		if v != 0 {
			return false
		}
	}
	return s.InsertLat.Count() == 0 && s.DeleteLat.Count() == 0
}
