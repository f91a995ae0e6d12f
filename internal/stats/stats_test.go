package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Stddev != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.N != 1 || s.Mean != 42 || s.Stddev != 0 || s.CI95 != 0 {
		t.Fatalf("single summary = %+v", s)
	}
	if s.Min != 42 || s.Max != 42 {
		t.Fatalf("single min/max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeKnown(t *testing.T) {
	// Sample 2,4,4,4,5,5,7,9: mean 5, population sd 2, sample sd ~2.138.
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !approx(s.Mean, 5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean)
	}
	if !approx(s.Stddev, 2.13809, 1e-4) {
		t.Fatalf("stddev = %v", s.Stddev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	// CI95 = t(7) * sd / sqrt(8) = 2.365 * 2.13809 / 2.8284 ≈ 1.7878
	if !approx(s.CI95, 1.7878, 1e-3) {
		t.Fatalf("ci95 = %v", s.CI95)
	}
}

func TestTCriticalMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		v := tCritical95(df)
		if v > prev+1e-9 {
			t.Fatalf("tCritical95 not non-increasing at df=%d: %v > %v", df, v, prev)
		}
		prev = v
	}
	if !approx(tCritical95(1000000), 1.95996, 1e-3) {
		t.Fatalf("tCritical95 large df = %v, want ~1.96", tCritical95(1000000))
	}
	if !math.IsNaN(tCritical95(0)) {
		t.Fatal("tCritical95(0) should be NaN")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean([1 2 3]) != 2")
	}
}

func TestWelfordMatchesDirect(t *testing.T) {
	if err := quick.Check(func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		var w Welford
		for i, r := range raw {
			xs[i] = float64(r)
			w.Add(float64(r))
		}
		s := Summarize(xs)
		return approx(w.Mean(), s.Mean, 1e-6*(1+math.Abs(s.Mean))) &&
			approx(w.Stddev(), s.Stddev, 1e-6*(1+s.Stddev))
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMerge(t *testing.T) {
	if err := quick.Check(func(a, b []uint16) bool {
		var wa, wb, whole Welford
		for _, x := range a {
			wa.Add(float64(x))
			whole.Add(float64(x))
		}
		for _, x := range b {
			wb.Add(float64(x))
			whole.Add(float64(x))
		}
		wa.Merge(wb)
		if wa.N() != whole.N() {
			return false
		}
		if wa.N() == 0 {
			return true
		}
		return approx(wa.Mean(), whole.Mean(), 1e-6*(1+math.Abs(whole.Mean()))) &&
			approx(wa.Variance(), whole.Variance(), 1e-5*(1+whole.Variance()))
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	mean, sd := a.Mean(), a.Stddev()
	a.Merge(b) // merging empty is a no-op
	if a.Mean() != mean || a.Stddev() != sd {
		t.Fatal("merging empty accumulator changed state")
	}
	b.Merge(a) // merging into empty copies
	if b.Mean() != mean || b.N() != 2 {
		t.Fatal("merge into empty did not copy")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Fatal("percentile endpoints wrong")
	}
	if Percentile(xs, 50) != 3 {
		t.Fatalf("median = %v", Percentile(xs, 50))
	}
	if !approx(Percentile(xs, 25), 2, 1e-12) {
		t.Fatalf("p25 = %v", Percentile(xs, 25))
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("Percentile(nil) should be NaN")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if got := s.String(); got == "" {
		t.Fatal("empty String()")
	}
}
