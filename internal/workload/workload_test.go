package workload

import (
	"testing"

	"cpq/internal/rng"
)

func TestStringRoundTrip(t *testing.T) {
	for _, k := range All() {
		got, err := Parse(k.String())
		if err != nil || got != k {
			t.Fatalf("Parse(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Fatal("Parse of unknown workload did not error")
	}
}

func TestUniformPolicyBalance(t *testing.T) {
	p := ForWorker(Uniform, 0, 8, 0.5, rng.New(1))
	inserts := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if p.Next() == Insert {
			inserts++
		}
	}
	if inserts < n*47/100 || inserts > n*53/100 {
		t.Fatalf("uniform policy inserted %d of %d", inserts, n)
	}
}

func TestUniformPolicyFraction(t *testing.T) {
	p := ForWorker(Uniform, 0, 8, 0.9, rng.New(2))
	inserts := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if p.Next() == Insert {
			inserts++
		}
	}
	if inserts < n*87/100 || inserts > n*93/100 {
		t.Fatalf("0.9 policy inserted %d of %d", inserts, n)
	}
}

func TestUniformPolicyClampsDegenerateFraction(t *testing.T) {
	for _, f := range []float64{-1, 0, 1, 2} {
		p := ForWorker(Uniform, 0, 2, f, rng.New(3))
		inserts := 0
		for i := 0; i < 1000; i++ {
			if p.Next() == Insert {
				inserts++
			}
		}
		if inserts == 0 || inserts == 1000 {
			t.Fatalf("fraction %v produced one-sided policy", f)
		}
	}
}

func TestSplitPolicy(t *testing.T) {
	inserters := 0
	for id := 0; id < 8; id++ {
		p := ForWorker(Split, id, 8, 0.5, rng.New(4))
		first := p.Next()
		for i := 0; i < 100; i++ {
			if p.Next() != first {
				t.Fatalf("split worker %d changed operation", id)
			}
		}
		if first == Insert {
			inserters++
		}
	}
	if inserters != 4 {
		t.Fatalf("%d of 8 split workers insert, want 4", inserters)
	}
}

func TestAlternatingPolicy(t *testing.T) {
	p := ForWorker(Alternating, 3, 8, 0.5, rng.New(5))
	for i := 0; i < 100; i++ {
		want := Insert
		if i%2 == 1 {
			want = DeleteMin
		}
		if got := p.Next(); got != want {
			t.Fatalf("op %d = %v, want %v", i, got, want)
		}
	}
}
