// Package stats provides the summary statistics the benchmark reports:
// sample mean, standard deviation, and confidence intervals over repeated
// runs, matching the paper's "each benchmark is executed [10] times, and we
// report on the mean values and confidence intervals".
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of repeated measurements.
type Summary struct {
	N      int     // number of measurements
	Mean   float64 // sample mean
	Stddev float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	CI95   float64 // half-width of the 95% confidence interval of the mean
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(n)
	if n > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(n-1))
		s.CI95 = tCritical95(n-1) * s.Stddev / math.Sqrt(float64(n))
	}
	return s
}

// String renders the summary as "mean ±ci95".
func (s Summary) String() string {
	return fmt.Sprintf("%.3f ±%.3f", s.Mean, s.CI95)
}

// tCritical95 returns the two-sided 95% critical value of Student's t
// distribution with df degrees of freedom. Values for small df are tabulated;
// larger df fall back to the normal approximation refined by a Cornish-Fisher
// style correction, accurate to ~1e-3 over the benchmark's range.
func tCritical95(df int) float64 {
	table := []float64{
		// df: 1 .. 30
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return math.NaN()
	}
	if df <= len(table) {
		return table[df-1]
	}
	// Normal quantile z for 97.5% is 1.959964; first-order t correction.
	z := 1.959964
	d := float64(df)
	return z + (z*z*z+z)/(4*d)
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Welford is a streaming mean/variance accumulator (Welford's algorithm).
// The zero value is ready to use. Not safe for concurrent use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Merge folds another accumulator into w (parallel aggregation).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
}

// N returns the number of observations.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the running mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the sample variance (n-1 denominator; 0 if n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
