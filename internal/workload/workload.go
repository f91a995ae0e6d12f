// Package workload implements the operation-mix policies of the paper's
// configurable benchmark (Section 2 and Appendix F):
//
//   - uniform: every thread performs insertions and deletions chosen
//     uniformly at random (50% each by default), keeping the queue in a
//     steady state;
//   - split: half the threads perform only insertions, the other half only
//     deletions — the locality stress case in which the k-LSM's throughput
//     collapses (Figure 2);
//   - alternating: every thread strictly alternates insert, delete_min,
//     insert, ... (operation batch size one); despite the same 50/50 ratio
//     as uniform, the paper measures significantly different throughput
//     (Figures 8 and 9).
package workload

import (
	"fmt"
	"strings"

	"cpq/internal/rng"
)

// Kind identifies an operation-mix policy.
type Kind int

const (
	// Uniform randomly mixes insertions and deletions per thread.
	Uniform Kind = iota
	// Split dedicates half the threads to insertions, half to deletions.
	Split
	// Alternating strictly alternates insert and delete per thread.
	Alternating
)

// String returns the canonical benchmark name.
func (k Kind) String() string {
	switch k {
	case Uniform:
		return "uniform"
	case Split:
		return "split"
	case Alternating:
		return "alternating"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// All lists the supported workloads in display order.
func All() []Kind { return []Kind{Uniform, Split, Alternating} }

// Parse converts a benchmark name to a Kind.
func Parse(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "uniform", "mixed":
		return Uniform, nil
	case "split":
		return Split, nil
	case "alternating", "alt":
		return Alternating, nil
	}
	return 0, fmt.Errorf("workload: unknown kind %q", s)
}

// Op is a single queue operation to perform.
type Op int

const (
	// Insert directs the worker to perform an insertion.
	Insert Op = iota
	// DeleteMin directs the worker to perform a deletion.
	DeleteMin
)

// Policy decides the next operation for one worker. Implementations are
// per-worker and not safe for concurrent use.
type Policy interface {
	// Next returns the next operation to perform.
	Next() Op
}

// ForWorker builds the policy for worker number id out of total workers
// under workload k. insertFrac is the probability of an insertion in the
// Uniform workload (the paper uses 0.5 so queues stay in steady state);
// values outside (0,1) are clamped to 0.5. r must be the worker's private
// generator.
func ForWorker(k Kind, id, total int, insertFrac float64, r *rng.Xoroshiro) Policy {
	return ForWorkerBatched(k, id, total, insertFrac, 1, r)
}

// ForWorkerBatched is ForWorker with an explicit operation batch size for
// the Alternating workload: batch insertions followed by batch deletions.
// This is the paper's "operation batch size" parameter (Appendix F); batch
// size 1 is the plain alternating workload, and "choosing large batches
// would correspond to the sorting benchmark used in [Larkin-Sen-Tarjan]".
// Uniform and Split ignore the batch size.
func ForWorkerBatched(k Kind, id, total int, insertFrac float64, batch int, r *rng.Xoroshiro) Policy {
	if insertFrac <= 0 || insertFrac >= 1 {
		insertFrac = 0.5
	}
	if batch < 1 {
		batch = 1
	}
	switch k {
	case Uniform:
		return &uniformPolicy{r: r, insertFrac: insertFrac}
	case Split:
		// Even-numbered workers insert, odd-numbered delete, so any prefix
		// of workers 0..n-1 is (nearly) half/half, as in the paper.
		return fixedPolicy{insert: id%2 == 0}
	case Alternating:
		return &alternatingPolicy{batch: batch}
	default:
		panic("workload: invalid kind")
	}
}

type uniformPolicy struct {
	r          *rng.Xoroshiro
	insertFrac float64
}

func (p *uniformPolicy) Next() Op {
	if p.r.Float64() < p.insertFrac {
		return Insert
	}
	return DeleteMin
}

type fixedPolicy struct{ insert bool }

func (p fixedPolicy) Next() Op {
	if p.insert {
		return Insert
	}
	return DeleteMin
}

type alternatingPolicy struct {
	batch int
	pos   int // position within the current insert+delete super-batch
}

func (p *alternatingPolicy) Next() Op {
	op := Insert
	if p.pos >= p.batch {
		op = DeleteMin
	}
	p.pos++
	if p.pos == 2*p.batch {
		p.pos = 0
	}
	return op
}
