// Package stats provides the small statistical toolkit used by the trace
// analysis programs and the experiment harness: running moments,
// correlation, quantiles and the average-error metric from
// Section III of the paper.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates count, mean and variance in one pass using
// Welford's algorithm. The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation. A NaN or ±Inf observation poisons
// the accumulator deterministically (Mean, Var and Std become NaN and
// stay NaN).
func (r *Running) Add(x float64) {
	if r.n == 0 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean, or NaN if empty.
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.mean
}

// Var returns the unbiased sample variance, or NaN with fewer than two
// observations.
func (r *Running) Var() float64 {
	if r.n < 2 {
		return math.NaN()
	}
	return r.m2 / float64(r.n-1)
}

// Std returns the sample standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// Min returns the smallest observation, or NaN if empty.
func (r *Running) Min() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.min
}

// Max returns the largest observation, or NaN if empty.
func (r *Running) Max() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.max
}

// Sum returns n·mean.
func (r *Running) Sum() float64 { return float64(r.n) * r.mean }

// Mean returns the mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the unbiased sample standard deviation of xs.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Correlation returns the Pearson coefficient of correlation between xs
// and ys — the statistic the paper computes between per-round RTT samples
// and the number of packets in flight (Section IV). It returns NaN when
// the slices differ in length, are shorter than 2, or either is constant.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns NaN for an empty
// slice, out-of-range q, or when any sample is NaN — sorting a slice
// containing NaN would otherwise make the result depend on the input
// order, the kind of nondeterminism that corrupts regenerated tables
// silently. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	for _, x := range xs {
		if math.IsNaN(x) {
			return math.NaN()
		}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// AverageError computes the paper's model-accuracy metric from
// Section III:
//
//	Σ |predicted - observed| / observed  /  #observations
//
// Pairs whose observed value is zero are skipped (the metric is undefined
// there); if no usable pairs remain it returns NaN. It panics if the
// slices differ in length.
func AverageError(predicted, observed []float64) float64 {
	if len(predicted) != len(observed) {
		panic(fmt.Sprintf("stats: AverageError length mismatch %d != %d", len(predicted), len(observed)))
	}
	sum, n := 0.0, 0
	for i := range observed {
		if observed[i] == 0 || math.IsNaN(observed[i]) || math.IsNaN(predicted[i]) {
			continue
		}
		sum += math.Abs(predicted[i]-observed[i]) / observed[i]
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
