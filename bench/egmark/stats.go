package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail metric may report. The
// choosing-metrics rule is "the highest percentile that has at least
// ten samples beyond it"; a fixed ladder keeps the metric's meaning
// from drifting when the sample count moves by a few between runs.
var tailLadder = []float64{99, 98, 95, 90, 80, 70, 60, 50}

// tailPercentile returns the highest ladder percentile that leaves at
// least ten of n samples beyond it; with fewer than twenty samples not
// even the median does, and the median is what is reported.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-int(math.Ceil(p/100*float64(n))) >= 10 {
			return p
		}
	}
	return 50
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the
// "exclusive" method), which is what the acceptance rule computes
// spreads with. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise figure every bound is compared against.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// latSummary reduces one repetition's latencies (nanoseconds) to the
// two figures every workload reports: the median and the supportable
// tail, both in microseconds.
type latSummary struct {
	N      int
	P50us  float64
	Tailus float64
	TailP  float64 // which percentile Tailus is
}

func summarize(ns []int64) latSummary {
	if len(ns) == 0 {
		return latSummary{}
	}
	f := make([]float64, len(ns))
	for i, v := range ns {
		f[i] = float64(v) / 1e3
	}
	sort.Float64s(f)
	p := tailPercentile(len(f))
	return latSummary{N: len(f), P50us: percentile(f, 50), Tailus: percentile(f, p), TailP: p}
}
