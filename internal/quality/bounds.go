package quality

import (
	"math"
	"strconv"
	"strings"
)

// BoundKind classifies a queue's advertised relaxation guarantee.
type BoundKind string

const (
	// BoundStrict marks exact queues: every delete_min returns the true
	// minimum (rank 0).
	BoundStrict BoundKind = "strict"
	// BoundRelaxed marks queues with a published worst-case rank bound.
	BoundRelaxed BoundKind = "bounded"
	// BoundNone marks queues with no published bound (reported, not judged).
	BoundNone BoundKind = "none"
)

// ClaimedBound returns the advertised rank bound of the named registry
// queue when accessed through p handles, and the bound's kind:
//
//	klsm<k>     rank <= k·P           (lock-free k-LSM guarantee)
//	slsm<k>     rank <= k             (shared component alone)
//	spray       rank = O(P·log³P)     (checked against C·P·log³P, C=32)
//	linden, globallock, lotan, hunt, mound, cbpq, locksl — strict (rank 0)
//	multiq, dlsm — no published bound
//
// p must count every handle that touches the queue, not just the measured
// workers: the k-LSM's kP window grows with each handle's local component,
// and the harnesses use extra handles for prefill and draining.
func ClaimedBound(name string, p int) (bound int, kind BoundKind) {
	if p < 1 {
		p = 1
	}
	n := strings.ToLower(strings.TrimSpace(name))
	// Durable wrappers (internal/durable) keep the inner structure's rank
	// guarantee — logging neither reorders nor relaxes anything.
	n = strings.TrimPrefix(n, "dur:")
	switch {
	case strings.HasPrefix(n, "klsm"):
		k, _ := strconv.Atoi(n[4:])
		return k * p, BoundRelaxed
	case strings.HasPrefix(n, "slsm"):
		k, _ := strconv.Atoi(n[4:])
		return k, BoundRelaxed
	case n == "spray" || n == "spraylist":
		// Checked form of the O(P·log³P) claim: C·P·log³(P+1) with C=32
		// and P floored at 4. Below the floor the integer walk geometry
		// (ceil'd jump widths, the +K height term, the claim-scan window)
		// stops shrinking with P, so observed ranks sit in a
		// small-constant regime the asymptotic formula undershoots; the
		// floor keeps the pragmatic check honest there without loosening
		// the bound where the asymptote is meaningful.
		if p < 4 {
			p = 4
		}
		lg := math.Log2(float64(p) + 1)
		return int(32 * float64(p) * lg * lg * lg), BoundRelaxed
	case n == "dlsm" || strings.HasPrefix(n, "multiq"):
		return 0, BoundNone
	default:
		return 0, BoundStrict
	}
}

// EffectiveP returns the handle count a pooled (dynamic-lifecycle) run's
// relaxation bound should be judged against, given the pool's peak live
// handle count and its total created count (pq.Pool.PeakLive, .Created).
//
// Release flushes a handle's buffers, so for structures whose relaxation
// lives entirely in per-handle buffers a released handle holds no items and
// only the peak concurrency widens the rank window: peakLive governs, and
// the bound SHRINKS back when handles are released. Structures with
// STRUCTURAL relaxation are the exception — state that persists past
// Release and only ever grows:
//
//   - klsm<k>, dlsm: a released handle keeps its local LSM component
//     (Flush returns only the shared-run buffer, by design), so every
//     handle ever created contributes up to k items to the window. dlsm
//     has no published bound, but the rule is stated so reports stay
//     comparable.
//   - spray: the walk geometry (height, max jump) is re-derived upward as
//     the pool grows and never shrinks, so observed ranks reflect the
//     largest handle count the structure was ever sized for.
//
// For both, created governs. Pool-mode harnesses construct such queues
// with Threads=1 and let pq.Pool's Grower calls do the sizing, so created
// really is the structure's size.
func EffectiveP(name string, peakLive, created int) int {
	if peakLive < 1 {
		peakLive = 1
	}
	if created < peakLive {
		created = peakLive
	}
	n := strings.ToLower(strings.TrimSpace(name))
	if strings.HasPrefix(n, "klsm") || n == "dlsm" || n == "spray" || n == "spraylist" {
		return created
	}
	return peakLive
}

// ViolationsAbove counts replayed deletions whose rank exceeded bound,
// using the result's power-of-two histogram buckets (conservative: a
// bucket straddling the bound is counted only when it lies entirely above).
func ViolationsAbove(res Result, bound int) uint64 {
	if res.MaxRank <= bound {
		return 0
	}
	var v uint64
	for b, c := range res.Histogram {
		if c == 0 {
			continue
		}
		lo := 0
		if b == 1 {
			lo = 1
		} else if b > 1 {
			lo = 1 << (b - 1)
		}
		if lo > bound {
			v += c
		}
	}
	return v
}
