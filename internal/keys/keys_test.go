package keys

import (
	"testing"
	"testing/quick"

	"cpq/internal/rng"
)

func gen(d Distribution, seed uint64) *Generator {
	return NewGenerator(d, rng.New(seed))
}

func TestStringRoundTrip(t *testing.T) {
	for _, d := range All() {
		got, err := Parse(d.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", d.String(), err)
		}
		if got != d {
			t.Fatalf("Parse(%q) = %v, want %v", d.String(), got, d)
		}
	}
}

func TestParseAliases(t *testing.T) {
	cases := map[string]Distribution{
		"uniform":  Uniform32,
		"UNIFORM8": Uniform8,
		" asc ":    Ascending,
		"desc":     Descending,
		"16bit":    Uniform16,
	}
	for s, want := range cases {
		got, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got != want {
			t.Fatalf("Parse(%q) = %v, want %v", s, got, want)
		}
	}
	if _, err := Parse("zipf"); err == nil {
		t.Fatal("Parse of unknown distribution did not error")
	}
}

func TestUniformRanges(t *testing.T) {
	for _, tc := range []struct {
		d   Distribution
		max uint64
	}{
		{Uniform32, 1<<32 - 1},
		{Uniform16, 1<<16 - 1},
		{Uniform8, 1<<8 - 1},
	} {
		g := gen(tc.d, 1)
		for i := 0; i < 10000; i++ {
			if k := g.Next(); k > tc.max {
				t.Fatalf("%v produced key %d > max %d", tc.d, k, tc.max)
			}
		}
	}
}

func TestUniform8ProducesDuplicates(t *testing.T) {
	// With only 256 possible keys, 10k draws must collide heavily — the
	// property Figure 3 / 4g relies on.
	g := gen(Uniform8, 2)
	seen := map[uint64]int{}
	for i := 0; i < 10000; i++ {
		seen[g.Next()]++
	}
	if len(seen) > 256 {
		t.Fatalf("uniform8 produced %d distinct keys", len(seen))
	}
	if len(seen) < 200 {
		t.Fatalf("uniform8 covered only %d of 256 keys in 10k draws", len(seen))
	}
}

func TestUniform32Spread(t *testing.T) {
	g := gen(Uniform32, 3)
	var lowHalf int
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Next() < 1<<31 {
			lowHalf++
		}
	}
	if lowHalf < n*48/100 || lowHalf > n*52/100 {
		t.Fatalf("uniform32 low-half fraction %d/%d looks skewed", lowHalf, n)
	}
}

func TestAscendingDrift(t *testing.T) {
	g := gen(Ascending, 4)
	const n = 100000
	ks := g.Fill(n)
	// Key i is base_i + (i+1) with base < 2^10, so key i ∈ (i, i + 2^10].
	for i, k := range ks {
		lo, hi := uint64(i), uint64(i)+1+(1<<BaseBits-1)
		if k <= lo || k > hi {
			t.Fatalf("ascending key %d = %d outside (%d, %d]", i, k, lo, hi)
		}
	}
	// Long-run trend must be upward: last decile average > first decile.
	first, last := avg(ks[:n/10]), avg(ks[n-n/10:])
	if last <= first {
		t.Fatalf("ascending keys do not drift up: first decile %v, last %v", first, last)
	}
}

func TestDescendingDrift(t *testing.T) {
	g := gen(Descending, 5)
	const n = 100000
	ks := g.Fill(n)
	first, last := avg(ks[:n/10]), avg(ks[n-n/10:])
	if last >= first {
		t.Fatalf("descending keys do not drift down: first decile %v, last %v", first, last)
	}
	for i, k := range ks {
		if k > MaxKey(Descending, uint64(n)) {
			t.Fatalf("descending key %d = %d exceeds MaxKey", i, k)
		}
	}
}

func TestDescendingNeverUnderflows(t *testing.T) {
	g := gen(Descending, 6)
	g.op = descendingStart - 2
	for i := 0; i < 10; i++ {
		k := g.Next()
		if k > descendingStart+(1<<BaseBits) {
			t.Fatalf("descending key wrapped: %d", k)
		}
	}
}

func TestOpsCounter(t *testing.T) {
	g := gen(Ascending, 7)
	if g.Ops() != 0 {
		t.Fatalf("fresh generator Ops() = %d", g.Ops())
	}
	g.Fill(37)
	if g.Ops() != 37 {
		t.Fatalf("Ops() = %d after 37 draws", g.Ops())
	}
	// Uniform distributions don't advance the hold-model counter.
	u := gen(Uniform32, 7)
	u.Fill(10)
	if u.Ops() != 0 {
		t.Fatalf("uniform generator advanced op counter to %d", u.Ops())
	}
}

func TestDeterministicForSeed(t *testing.T) {
	for _, d := range All() {
		a, b := gen(d, 99), gen(d, 99)
		for i := 0; i < 1000; i++ {
			if x, y := a.Next(), b.Next(); x != y {
				t.Fatalf("%v: same seed diverged at %d (%d vs %d)", d, i, x, y)
			}
		}
	}
}

func TestMaxKeyBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		horizon := uint64(n)%5000 + 1
		for _, d := range All() {
			g := gen(d, seed)
			max := MaxKey(d, horizon)
			for i := uint64(0); i < horizon; i++ {
				if g.Next() > max {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func avg(xs []uint64) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}
