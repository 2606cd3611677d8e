package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// summary is a timing as the choosing-metrics guide wants it reported:
// median, quartiles and the sample count behind them.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func median(values []float64) float64 { return summarize(values).Median }

// karpFlatt is the experimentally determined serial fraction
// e = (1/S − 1/p) / (1 − 1/p) for a speedup S on p processors: 0 means
// perfectly parallel, 1 means no part of the work scaled.
func karpFlatt(speedup float64, p int) float64 {
	if p < 2 {
		return math.NaN()
	}
	return (1/speedup - 1/float64(p)) / (1 - 1/float64(p))
}
