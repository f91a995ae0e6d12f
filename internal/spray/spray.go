// Package spray implements the SprayList of Alistarh, Kopinsky, Li and
// Shavit (PPoPP 2015): a relaxed priority queue built on a lock-free
// skiplist in which delete_min performs a randomized "spray" walk instead of
// contending on the exact head-of-queue element.
//
// A spray starts near the head at height H = ⌊log₂ P⌋ + K and, descending D
// levels at a time, jumps forward a uniformly random number of nodes at each
// level. The walk lands on one of the O(P·log³P) smallest elements with
// near-uniform probability, so P concurrent deleters spread their CASes over
// that many distinct nodes instead of all hitting the first one. The landed
// node is claimed via a logical-deletion flag (losers walk on to the next
// node), and the winner physically unlinks it.
//
// P — the number of concurrently spraying threads — is supplied by the
// caller at construction, exactly as the benchmark fixes the thread count
// up front (the original implementation likewise derives its parameters
// from the number of registered threads).
package spray

import (
	"math"
	"sync"
	"sync/atomic"

	"cpq/internal/chaos"
	"cpq/internal/pq"
	"cpq/internal/rng"
	"cpq/internal/skiplist"
	"cpq/internal/telemetry"
)

// Queue is a SprayList. The walk geometry is derived from the thread-count
// parameter p at construction and re-derived when a handle pool grows past
// it (EnsureHandles); height and maxJump are published together in one
// packed atomic word so a concurrent walk never mixes the two halves of
// different geometries.
type Queue struct {
	list   *skiplist.List
	p      atomic.Int32  // expected maximum number of concurrent threads
	geom   atomic.Uint64 // height<<32 | maxJump, published by New/EnsureHandles
	seed   atomic.Uint64
	growMu sync.Mutex // serializes EnsureHandles (p and geom move together)
}

var _ pq.Queue = (*Queue)(nil)
var _ pq.Grower = (*Queue)(nil)

// New returns an empty SprayList tuned for up to p concurrent threads.
// p < 1 is treated as 1.
func New(p int) *Queue {
	if p < 1 {
		p = 1
	}
	q := &Queue{list: skiplist.New()}
	q.p.Store(int32(p))
	q.geom.Store(packGeometry(sprayGeometry(p)))
	return q
}

// EnsureHandles implements pq.Grower: re-derive the spray geometry when a
// handle pool grows past the constructed thread parameter, so the
// candidate-set size keeps tracking O(P·log³P) for the live P. The walk
// reads one packed word, so growth never tears a walk's geometry.
// Idempotent; never shrinks.
func (q *Queue) EnsureHandles(p int) {
	if p <= int(q.p.Load()) {
		return
	}
	q.growMu.Lock()
	defer q.growMu.Unlock()
	if p <= int(q.p.Load()) {
		return
	}
	q.geom.Store(packGeometry(sprayGeometry(p)))
	q.p.Store(int32(p))
}

func packGeometry(height, maxJump int) uint64 {
	return uint64(uint32(height))<<32 | uint64(uint32(maxJump))
}

// sprayGeometry derives the starting height H and the per-level maximum
// jump length L with the original paper's parameters K = 1, M = 1 and
// D = 1: the walk starts at height ⌊log₂ P⌋ + K, and descends D levels
// between jumps. Its total reach — the product of per-level spans — is
// calibrated so a spray covers on the order of M·P·log³P nodes, the
// candidate-set size the paper proves near-uniform selection over.
func sprayGeometry(p int) (height, maxJump int) {
	logP := math.Log2(float64(p) + 1)
	height = int(math.Floor(logP)) + 1 // K = 1
	if height >= skiplist.MaxHeight {
		height = skiplist.MaxHeight - 1
	}
	reach := float64(p) * math.Pow(logP+1, 3) // M = 1
	levels := float64(height + 1)             // D = 1: every level jumps
	// Each level contributes an expected span of (L/2)·2^level nodes; we
	// size L so the summed expectation is of order `reach`. Using the
	// dominant top-level term keeps this a one-liner and inside a small
	// constant of the paper's asymptotics.
	maxJump = int(math.Ceil(math.Pow(reach, 1/levels)))
	if maxJump < 1 {
		maxJump = 1
	}
	return height, maxJump
}

// Name implements pq.Queue.
func (q *Queue) Name() string { return "spray" }

// P returns the thread-count parameter the spray geometry was derived from
// (the constructor's value, or the high-water EnsureHandles value).
func (q *Queue) P() int { return int(q.p.Load()) }

// Geometry reports the derived (starting height, max jump) pair; exposed
// for tests and the ablation benchmarks.
func (q *Queue) Geometry() (height, maxJump int) {
	g := q.geom.Load()
	return int(uint32(g >> 32)), int(uint32(g))
}

// Handle implements pq.Queue.
func (q *Queue) Handle() pq.Handle {
	return &Handle{
		q:   q,
		sh:  q.list.NewHandle(),
		rng: rng.New(q.seed.Add(0x9e3779b97f4a7c15)),
		tel: telemetry.NewShard(),
	}
}

// Handle is a per-goroutine handle carrying the spray RNG and the arena
// allocator.
type Handle struct {
	q   *Queue
	sh  *skiplist.Handle
	rng *rng.Xoroshiro
	tel *telemetry.Shard
}

var _ pq.Handle = (*Handle)(nil)
var _ pq.Peeker = (*Handle)(nil)

// Insert implements pq.Handle.
func (h *Handle) Insert(key, value uint64) {
	h.sh.Insert(key, value, skiplist.RandomHeight(h.rng))
}

// DeleteMin implements pq.Handle. It sprays to a candidate, then walks
// forward claiming the first available node. A miss (walk ran off the list)
// retries with a fresh spray; after a few misses it falls back to a strict
// head scan so emptiness is detected reliably.
func (h *Handle) DeleteMin() (key, value uint64, ok bool) {
	const sprayAttempts = 2
	for attempt := 0; attempt < sprayAttempts; attempt++ {
		if n := h.sprayOnce(); !n.IsNil() {
			return n.Key(), n.Value(), true
		}
		h.tel.Inc(telemetry.SprayMiss)
	}
	h.tel.Inc(telemetry.SprayFallback)
	// Failpoint: stall at fallback entry so concurrent deleters contend on
	// the strict head scan.
	chaos.Perturb(chaos.SprayFallback)
	// Fallback: strict scan from the head (also the emptiness check).
	// With P=1 the spray geometry is tiny, so this path mirrors an exact
	// delete_min queue.
	l := h.q.list
	curr, _ := l.Head().Next(0)
	for !curr.IsNil() {
		if !curr.IsClaimed() && !curr.DeletedAt0() && curr.TryClaim() {
			curr.MarkTower()
			l.Unlink(curr)
			return curr.Key(), curr.Value(), true
		}
		curr, _ = curr.Next(0)
	}
	return 0, 0, false
}

// scanLimit bounds the forward claim scan after a spray landing; past it
// the spray counts as a miss and is retried (or falls back).
const scanLimit = 64

// sprayOnce performs one spray walk and tries to claim a node at or after
// the landing point. Returns the nil Node on a miss.
func (h *Handle) sprayOnce() skiplist.Node {
	curr, ok := h.sprayWalk()
	if !ok {
		return skiplist.Node{}
	}
	q := h.q
	// Claim the landing node or the first claimable node after it.
	for i := 0; !curr.IsNil() && i < scanLimit; i++ {
		if curr != q.list.Head() && !curr.IsClaimed() && !curr.DeletedAt0() && curr.TryClaim() {
			curr.MarkTower()
			q.list.Unlink(curr)
			return curr
		}
		curr, _ = curr.Next(0)
	}
	return skiplist.Node{}
}

// sprayWalk performs the randomized descent and returns the landing node
// (possibly the head sentinel). ok is false on a failpoint-forced miss.
func (h *Handle) sprayWalk() (landing skiplist.Node, ok bool) {
	// Failpoint: a forced miss exercises the retry and fallback paths; a
	// perturbation delays the walk so the landing region drains under it.
	// Both happen before any node is claimed, so no item can be dropped.
	if chaos.ShouldFail(chaos.SprayWalk) {
		return skiplist.Node{}, false
	}
	chaos.Perturb(chaos.SprayWalk)
	q := h.q
	curr := q.list.Head()
	level, maxJump := q.Geometry() // one packed load: growth cannot tear it
	for {
		j := int(h.rng.Uintn(uint64(maxJump) + 1))
		for ; j > 0 && !curr.IsNil(); j-- {
			var next skiplist.Node
			if curr.Height() > level {
				next, _ = curr.Next(level)
			} else {
				// Walk fell onto a node shorter than the current level
				// (possible right after descending); drop to its top level.
				next, _ = curr.Next(curr.Height() - 1)
			}
			if next.IsNil() {
				break // clamp at the end of the level
			}
			curr = next
		}
		if level == 0 {
			break
		}
		level-- // D = 1: descend one level between jumps
	}
	return curr, true
}

// PeekMin reports the first unclaimed node (exact, not sprayed).
func (h *Handle) PeekMin() (key, value uint64, ok bool) {
	n := h.q.list.FirstLive()
	if n.IsNil() {
		return 0, 0, false
	}
	return n.Key(), n.Value(), true
}

// Len counts live items. O(n); tests and draining only.
func (q *Queue) Len() int { return q.list.CountLive() }
