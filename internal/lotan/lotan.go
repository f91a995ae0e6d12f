// Package lotan implements a lock-free variant of the Shavit-Lotan skiplist
// priority queue (IPDPS 2000), in the quiescently-consistent formulation of
// Herlihy & Shavit's "The Art of Multiprocessor Programming" (Appendix D of
// the paper lists it among the historically relevant designs; the suite
// includes it as an extension baseline).
//
// delete_min scans the bottom level from the head and attempts to claim the
// first unclaimed node via a dedicated logical-deletion flag; the winner
// then removes the node from the skiplist (mark tower + helped unlink).
// Compared to Lindén-Jonsson, every deletion performs physical removal
// immediately, which concentrates memory contention at the list head — the
// exact behaviour Lindén-Jonsson's batching improves on, and an interesting
// ablation pair for the benchmarks. The lotan-claim-fail counter reports
// the scan steps lost to that head contention (DESIGN.md §5).
//
// Registry identifier: "lotan"; strict at quiescence (cmd/pqverify checks
// that no deletion has a definite rank above 0). It shares
// internal/skiplist with linden and spray, which makes it the exact-scan
// control in the spray-vs-scan ablation (DESIGN.md §10): same substrate,
// strict head scan instead of a spray walk.
package lotan

import (
	"sync/atomic"

	"cpq/internal/pq"
	"cpq/internal/rng"
	"cpq/internal/skiplist"
	"cpq/internal/telemetry"
)

// Queue is a Shavit-Lotan style priority queue.
type Queue struct {
	list *skiplist.List
	seed atomic.Uint64
}

var _ pq.Queue = (*Queue)(nil)

// New returns an empty queue.
func New() *Queue { return &Queue{list: skiplist.New()} }

// Name implements pq.Queue.
func (q *Queue) Name() string { return "lotan" }

// Handle implements pq.Queue.
func (q *Queue) Handle() pq.Handle {
	return &Handle{
		q:   q,
		sh:  q.list.NewHandle(),
		rng: rng.New(q.seed.Add(0x9e3779b97f4a7c15)),
		tel: telemetry.NewShard(),
	}
}

// Handle is a per-goroutine handle carrying the tower-height RNG, the arena
// allocator and the telemetry shard.
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

// DeleteMin implements pq.Handle: claim the first unclaimed node from the
// head of the bottom level, then physically remove it.
func (h *Handle) DeleteMin() (key, value uint64, ok bool) {
	l := h.q.list
	curr, _ := l.Head().Next(0)
	fails := uint64(0)
	for !curr.IsNil() {
		if !curr.IsClaimed() && !curr.DeletedAt0() && curr.TryClaim() {
			curr.MarkTower()
			l.Unlink(curr)
			if fails > 0 {
				h.tel.Add(telemetry.LotanClaimFail, fails)
			}
			return curr.Key(), curr.Value(), true
		}
		fails++
		curr, _ = curr.Next(0)
	}
	if fails > 0 {
		h.tel.Add(telemetry.LotanClaimFail, fails)
	}
	return 0, 0, false
}

// PeekMin reports the first unclaimed node without removing it.
func (h *Handle) PeekMin() (key, value uint64, ok bool) {
	n := h.q.list.FirstLive()
	if n.IsNil() {
		return 0, 0, false
	}
	return n.Key(), n.Value(), true
}

// Len counts live items. O(n); tests and draining only.
func (q *Queue) Len() int { return q.list.CountLive() }
