// Package keys implements the key distributions of the paper's configurable
// benchmark (Section 2 and Appendix F):
//
//   - uniform: keys drawn uniformly at random from a 32-, 16- or 8-bit range;
//   - ascending/descending: a uniformly chosen base key from a small (10-bit)
//     range, shifted upwards (downwards) at each operation by adding the base
//     to (subtracting it from) the per-thread operation counter.
//
// Ascending/descending keys correspond to the "hold model" of Jones (CACM
// 1986): the key of the next inserted element depends monotonically on how
// far the computation has progressed, as in discrete event simulation.
//
// A Generator is stateful (it carries the operation counter) and therefore
// NOT safe for concurrent use; the harness creates one generator per worker,
// mirroring the paper's per-thread key generation.
package keys

import (
	"fmt"
	"strings"

	"cpq/internal/rng"
)

// Distribution identifies one of the benchmark key distributions.
type Distribution int

const (
	// Uniform32 draws keys uniformly from [0, 2^32).
	Uniform32 Distribution = iota
	// Uniform16 draws keys uniformly from [0, 2^16).
	Uniform16
	// Uniform8 draws keys uniformly from [0, 2^8). With a 10^6-element
	// prefill this forces massive key duplication, the paper's stress case
	// for duplicate handling.
	Uniform8
	// Ascending draws a base key uniformly from a 10-bit range and adds the
	// per-generator operation number, so keys drift upward over time.
	Ascending
	// Descending mirrors Ascending: keys drift downward over time from a
	// large starting offset.
	Descending
	// HoldAscending is the paper's "key dependency switch" in its strict
	// hold-model form (Appendix F): the next key is the key of the last
	// deleted element plus a random 10-bit base. Requires the benchmark
	// loop to report deleted keys via Observe.
	HoldAscending
	// HoldDescending subtracts the random base from the last deleted key.
	HoldDescending
)

// BaseBits is the width of the random base component of the Ascending and
// Descending distributions.
const BaseBits = 10

// descendingStart is the starting offset for Descending. It leaves room for
// billions of operations before the subtraction would underflow, while
// keeping keys comfortably inside the 64-bit range.
const descendingStart = uint64(1) << 40

// String returns the canonical benchmark name of the distribution.
func (d Distribution) String() string {
	switch d {
	case Uniform32:
		return "uniform32"
	case Uniform16:
		return "uniform16"
	case Uniform8:
		return "uniform8"
	case Ascending:
		return "ascending"
	case Descending:
		return "descending"
	case HoldAscending:
		return "holdasc"
	case HoldDescending:
		return "holddesc"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// All lists every supported distribution in display order.
func All() []Distribution {
	return []Distribution{Uniform32, Uniform16, Uniform8, Ascending, Descending,
		HoldAscending, HoldDescending}
}

// Parse converts a benchmark name ("uniform32", "ascending", ...) to a
// Distribution. It accepts the paper's shorthand "uniform" for uniform32.
func Parse(s string) (Distribution, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "uniform", "uniform32", "32", "32bit":
		return Uniform32, nil
	case "uniform16", "16", "16bit":
		return Uniform16, nil
	case "uniform8", "8", "8bit":
		return Uniform8, nil
	case "ascending", "asc", "up":
		return Ascending, nil
	case "descending", "desc", "down":
		return Descending, nil
	case "holdasc", "hold", "holdascending":
		return HoldAscending, nil
	case "holddesc", "holddescending":
		return HoldDescending, nil
	}
	return 0, fmt.Errorf("keys: unknown distribution %q", s)
}

// Generator produces keys for one worker. Not safe for concurrent use.
type Generator struct {
	dist Distribution
	rng  *rng.Xoroshiro
	op   uint64 // per-generator operation counter (hold-model shift)
	last uint64 // last observed deleted key (strict hold model)
}

// NewGenerator returns a generator for dist drawing randomness from r.
// The caller retains ownership of r.
func NewGenerator(dist Distribution, r *rng.Xoroshiro) *Generator {
	return &Generator{dist: dist, rng: r}
}

// Distribution reports which distribution this generator draws from.
func (g *Generator) Distribution() Distribution { return g.dist }

// Ops reports how many keys have been generated so far.
func (g *Generator) Ops() uint64 { return g.op }

// Next returns the next key.
func (g *Generator) Next() uint64 {
	switch g.dist {
	case Uniform32:
		return uint64(g.rng.Uint32())
	case Uniform16:
		return g.rng.Uint64() & 0xffff
	case Uniform8:
		return g.rng.Uint64() & 0xff
	case Ascending:
		base := g.rng.Uint64() & (1<<BaseBits - 1)
		g.op++
		return base + g.op
	case Descending:
		base := g.rng.Uint64() & (1<<BaseBits - 1)
		g.op++
		// Keys drift downward; clamp defensively long after any realistic
		// benchmark horizon so the subtraction can never wrap.
		if g.op >= descendingStart {
			return base
		}
		return descendingStart - g.op + base
	case HoldAscending:
		base := g.rng.Uint64() & (1<<BaseBits - 1)
		return g.last + base
	case HoldDescending:
		base := g.rng.Uint64() & (1<<BaseBits - 1)
		if g.last == 0 {
			g.last = descendingStart
		}
		if base >= g.last {
			return 0
		}
		return g.last - base
	default:
		panic("keys: invalid distribution")
	}
}

// Observe reports the key of the last element the owning worker deleted;
// the strict hold-model distributions derive the next key from it, exactly
// as Appendix F describes ("a dependent key is formed by adding or
// subtracting the randomly generated base key to the key of the last
// deleted item"). Other distributions ignore it.
func (g *Generator) Observe(deletedKey uint64) { g.last = deletedKey }

// Fill generates n keys into a fresh slice. Used for prefilling queues.
func (g *Generator) Fill(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// MaxKey reports an inclusive upper bound on keys the distribution can
// produce within horizon operations. Used by tests and by sizing logic.
func MaxKey(d Distribution, horizon uint64) uint64 {
	switch d {
	case Uniform32:
		return 1<<32 - 1
	case Uniform16:
		return 1<<16 - 1
	case Uniform8:
		return 1<<8 - 1
	case Ascending:
		return (1<<BaseBits - 1) + horizon
	case Descending:
		return descendingStart + (1<<BaseBits - 1)
	case HoldAscending:
		return ^uint64(0) // depends on observed keys; unbounded in general
	case HoldDescending:
		return descendingStart + (1<<BaseBits - 1)
	default:
		panic("keys: invalid distribution")
	}
}
