// Package chaos is the suite's fault-injection layer: named failpoints
// threaded through the contended paths of the queue implementations, which
// inject seeded, reproducible schedule perturbations — forced yields, busy
// spins and forced CAS/try-lock failures — exactly where the structures'
// correctness arguments are most fragile.
//
// The paper's headline claims rest on lock-free progress and bounded
// relaxation: the k-LSM's delete_min must return one of the kP smallest
// items under any interleaving, and the engineered MultiQueue's buffered
// items must stay reachable through the emptiness oracle and Flush. An
// ordinary benchmark run only explores the interleavings the scheduler
// happens to produce; the failpoints widen race windows (a delay between a
// state load and its CAS invites a conflicting publish) and force the rare
// branches (a "failed" try-lock exercises stick resets and resampling) so
// the invariant checker (check.go) can hunt for violations in schedules a
// quiet machine would never reach.
//
// # Design
//
// The layer follows the same zero-cost-when-disabled rules as
// internal/telemetry:
//
//   - One branch when disabled: Perturb and ShouldFail reduce to a single
//     predictable branch on the package-level Enabled flag. Both are small
//     enough to inline; the enabled path lives in separate noinline
//     functions so the disabled path stays register-only.
//   - No allocation: neither the disabled nor the enabled path allocates
//     (guarded by testing.AllocsPerRun), so the existing allocs/op
//     regression gates hold with chaos compiled in.
//   - Enabled is a plain bool by design: it must be set before any
//     instrumented queue runs and never toggled while workers are live —
//     toggling mid-run is a data race (the flag buys its zero cost by not
//     being atomic). Enable/Disable are bracketed around quiesced phases.
//
// # Determinism and replay
//
// Every injection decision is a pure function of (seed, failpoint, n) where
// n is the failpoint's private hit counter: hash the triple, compare
// against the configured rates. A run with the same seed therefore injects
// the same decision sequence at every site. Goroutine interleaving itself
// is not (and cannot be) replayed, but re-running a failing seed reproduces
// the same perturbation pattern against the same seeded workload, which in
// practice re-triggers logic bugs reliably — the checker prints the seed on
// every failure for exactly this workflow (see DESIGN.md §6).
package chaos

import (
	"runtime"
	"sync/atomic"
)

// Failpoint names one instrumented code site. The constants are the
// complete inventory; each is documented with its emission site.
type Failpoint int

const (
	// SLSMPublish is the SLSM's optimistic state-publish CAS
	// (core/slsm.go:insertBatch). Perturbed between the state load and the
	// CAS; a forced failure skips the CAS attempt and redoes the merge, the
	// exact retry storm the capped publish backoff is meant to damp.
	SLSMPublish Failpoint = iota
	// SLSMRepublish is the pivot-range recompute CAS
	// (core/slsm.go:takeRun, peekCandidate). A forced failure behaves like
	// losing the republish race to a concurrent publisher.
	SLSMRepublish
	// SLSMPivotTake is the pivot-range item-take scan
	// (core/slsm.go:takeRun). Perturbed after the state load so concurrent
	// takers interleave mid-scan and stale-pivot retries pile up.
	SLSMPivotTake
	// KLSMRunBuffer is the shared-run buffer hot path
	// (core/klsm.go:DeleteMin, Flush). Perturbed before the handle locks
	// its local component, widening the window in which a spy can steal the
	// buffer out from under the owner.
	KLSMRunBuffer
	// KLSMSpy is the spy work-stealing round (core/klsm.go:spy). Perturbed
	// between victim selection and the victim lock.
	KLSMSpy
	// MQLock is the MultiQueue sub-queue try-lock (multiq/multiq.go:Insert,
	// DeleteMin sampling; multiq/engineered.go:lockForInsert,
	// refillLocked). A forced failure is treated exactly like a lost
	// try-lock: inserts redirect, sticky targets are abandoned.
	MQLock
	// MQFlush is the engineered insertion-buffer flush
	// (multiq/engineered.go:flushInsLocked). Perturbed while the handle
	// lock is held, so sweeps and steals pile up against the flush.
	MQFlush
	// MQRefill is the engineered deletion-buffer refill
	// (multiq/engineered.go:refillLocked). Perturbed between the cached-min
	// sample and the batch pop, inviting the raced-drain path.
	MQRefill
	// SprayWalk is the spray descent (spray/spray.go:sprayOnce). A forced
	// failure turns the walk into a miss, exercising retry and fallback; a
	// perturbation delays the walk so claimed nodes go stale under it.
	SprayWalk
	// SprayFallback is the strict head scan fallback
	// (spray/spray.go:DeleteMin). Perturbed at entry so concurrent
	// deleters contend on the list head.
	SprayFallback
	// LindenSplice is the Lindén insert's validated level-0 splice CAS
	// (linden/linden.go:Insert). Perturbed between the find and the CAS so
	// the window can go stale under the inserter; a forced failure is
	// treated exactly like a lost splice and redoes the find.
	LindenSplice
	// LindenRestructure is the Lindén batch physical unlink of the dead
	// prefix (linden/linden.go:restructure). Perturbed at entry so
	// concurrent delete_mins keep walking the prefix mid-cleanup; a forced
	// failure abandons the restructure, leaving the dead prefix for a
	// later call — the same outcome as losing every unlink CAS to helpers.
	LindenRestructure
	// BatchPublish is the k-LSM InsertN eviction publish — the single SLSM
	// CAS that makes a whole insert batch shared (core/klsm.go:InsertN via
	// slsm.insertBatchFP). Perturbed between the state load and the CAS; a
	// forced failure loses the publish mid-batch and redoes the merge, so
	// the checker can verify no batch item is dropped or doubled across the
	// retry.
	BatchPublish
	// WALFsync is the durable tier's group-commit barrier
	// (durable/wal.go:commit), perturbed between writing the pending
	// buffer to the store and fsyncing it — the worst crash window: bytes
	// the OS may or may not have, acks not yet sent. The kill/recover
	// test's crash-at-boundary mode exits the process here; a delay
	// widens the window so more producers pile onto one commit ticket.
	WALFsync

	// SnapManifest is the concurrent snapshot's commit point
	// (durable/snapshot.go:takeSnapshot), perturbed after the partial
	// snapshot chunks are durable but before the manifest write that
	// makes them the recovery base — the window where a crash must fall
	// back to the previous snapshot plus the full WAL tail. A delay here
	// stretches the span where orphan part keys exist alongside live
	// traffic.
	SnapManifest

	// NumFailpoints bounds per-failpoint state; not a failpoint itself.
	NumFailpoints
)

var fpNames = [NumFailpoints]string{
	SLSMPublish:       "slsm-publish",
	SLSMRepublish:     "slsm-republish",
	SLSMPivotTake:     "slsm-pivot-take",
	KLSMRunBuffer:     "klsm-run-buffer",
	KLSMSpy:           "klsm-spy",
	MQLock:            "mq-lock",
	MQFlush:           "mq-flush",
	MQRefill:          "mq-refill",
	SprayWalk:         "spray-walk",
	SprayFallback:     "spray-fallback",
	LindenSplice:      "linden-splice",
	LindenRestructure: "linden-restructure",
	BatchPublish:      "batch-publish",
	WALFsync:          "wal-fsync",
	SnapManifest:      "snap-manifest",
}

// String returns the failpoint's short identifier, e.g. "slsm-publish".
func (fp Failpoint) String() string { return fpNames[fp] }

// Enabled turns fault injection on. It must be set (via Enable) before
// instrumented queues run and must not be toggled while they do; see the
// package documentation. When false — the default — every failpoint reduces
// to one branch.
var Enabled bool

// Config tunes the injection. The zero value selects the defaults noted on
// each field; rates are expressed as "about 1 in N hits" because the
// decision hash is compared against a modulus, keeping the hot decision a
// single remainder.
type Config struct {
	// Seed drives every injection decision; the same seed reproduces the
	// same decision sequence at every failpoint. Zero selects a fixed
	// default so Enable(Config{}) is already reproducible.
	Seed uint64
	// DelayEvery injects a delay at roughly 1 in DelayEvery Perturb hits
	// (default 16; negative disables delays).
	DelayEvery int
	// FailEvery forces roughly 1 in FailEvery ShouldFail hits to report
	// failure (default 8; negative disables forced failures).
	FailEvery int
	// MaxYield bounds the runtime.Gosched calls of a yield-type delay
	// (default 4).
	MaxYield int
	// MaxSpin bounds the iterations of a busy-spin delay (default 512).
	MaxSpin int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 0x9e3779b97f4a7c15
	}
	if c.DelayEvery == 0 {
		c.DelayEvery = 16
	}
	if c.FailEvery == 0 {
		c.FailEvery = 8
	}
	if c.MaxYield <= 0 {
		c.MaxYield = 4
	}
	if c.MaxSpin <= 0 {
		c.MaxSpin = 512
	}
	return c
}

// state is the enabled layer's private state. hits is the decision counter
// feeding the hash (and doubling as the coverage report); delays and fails
// count the injections actually performed.
var state struct {
	cfg    Config
	hits   [NumFailpoints]atomic.Uint64
	delays [NumFailpoints]atomic.Uint64
	fails  [NumFailpoints]atomic.Uint64
}

// spinSink defeats dead-code elimination of the busy-spin delay loop.
var spinSink atomic.Uint64

// Enable turns injection on with the given configuration and resets all
// counters. Call it before constructing the queues under test, with no
// instrumented goroutines running.
func Enable(cfg Config) {
	state.cfg = cfg.withDefaults()
	for fp := Failpoint(0); fp < NumFailpoints; fp++ {
		state.hits[fp].Store(0)
		state.delays[fp].Store(0)
		state.fails[fp].Store(0)
	}
	Enabled = true
}

// Disable turns injection off. Call it only once every instrumented
// goroutine has quiesced.
func Disable() {
	Enabled = false
}

// Stats reports per-failpoint decision hits and performed injections since
// the last Enable — the checker's failpoint-coverage report.
type Stats struct {
	Hits   [NumFailpoints]uint64
	Delays [NumFailpoints]uint64
	Fails  [NumFailpoints]uint64
}

// Snapshot returns the current injection counters.
func Snapshot() Stats {
	var s Stats
	for fp := Failpoint(0); fp < NumFailpoints; fp++ {
		s.Hits[fp] = state.hits[fp].Load()
		s.Delays[fp] = state.delays[fp].Load()
		s.Fails[fp] = state.fails[fp].Load()
	}
	return s
}

// TotalHits sums decision hits across all failpoints.
func (s Stats) TotalHits() uint64 {
	var t uint64
	for _, h := range s.Hits {
		t += h
	}
	return t
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed hash of the
// (seed, failpoint, counter) decision triple.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// decide draws the failpoint's next decision word.
func decide(fp Failpoint) uint64 {
	n := state.hits[fp].Add(1)
	return mix64(state.cfg.Seed ^ uint64(fp)<<56 ^ n)
}

// Perturb injects a bounded schedule perturbation at fp — a short Gosched
// burst or a busy spin — at the configured rate. Disabled: one branch, no
// write, no allocation.
func Perturb(fp Failpoint) {
	if !Enabled {
		return
	}
	perturbSlow(fp)
}

//go:noinline
func perturbSlow(fp Failpoint) {
	d := state.cfg.DelayEvery
	if d < 0 {
		state.hits[fp].Add(1)
		return
	}
	h := decide(fp)
	if h%uint64(d) != 0 {
		return
	}
	state.delays[fp].Add(1)
	if h>>32&1 == 0 {
		// Yield burst: hand the processor to whoever is racing us.
		n := int(h>>33)%state.cfg.MaxYield + 1
		for i := 0; i < n; i++ {
			runtime.Gosched()
		}
		return
	}
	// Busy spin: stall inside the race window without descheduling.
	n := int(h>>33)%state.cfg.MaxSpin + 1
	var acc uint64
	for i := 0; i < n; i++ {
		acc += uint64(i)
	}
	spinSink.Store(acc)
}

// ShouldFail reports whether the failpoint should act as if its CAS or
// try-lock failed, at the configured rate. The caller must route a forced
// failure through its genuine failure path (retry, resample, backoff) —
// never through a path that would drop work. Disabled: one branch.
func ShouldFail(fp Failpoint) bool {
	if !Enabled {
		return false
	}
	return shouldFailSlow(fp)
}

//go:noinline
func shouldFailSlow(fp Failpoint) bool {
	f := state.cfg.FailEvery
	if f < 0 {
		state.hits[fp].Add(1)
		return false
	}
	if decide(fp)%uint64(f) != 0 {
		return false
	}
	state.fails[fp].Add(1)
	return true
}
