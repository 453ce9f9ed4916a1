package main

import "math"

// hist records durations in log-spaced buckets 0.1% wide between 100 ns
// and 1000 s, so a phase of any length keeps a fixed-size record and the
// benchmark's own memory does not grow with the server's throughput.
type hist struct {
	counts []uint32
	n      int
}

const (
	histMin    = 1e-7
	histGrowth = 1.001
)

var histBuckets = int(math.Ceil(math.Log(1e3/histMin)/math.Log(histGrowth))) + 1

func newHist() *hist { return &hist{counts: make([]uint32, histBuckets)} }

func (h *hist) add(seconds float64) {
	i := 0
	if seconds > histMin {
		i = min(int(math.Log(seconds/histMin)/math.Log(histGrowth)), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the geometric centre of the bucket holding the
// q-quantile, or NaN for an empty record.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := int(q * float64(h.n-1))
	seen := 0
	for i, c := range h.counts {
		seen += int(c)
		if seen > rank {
			return histMin * math.Pow(histGrowth, float64(i)+0.5)
		}
	}
	return math.NaN()
}
