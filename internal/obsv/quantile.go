// quantile.go is the high-resolution latency instrument: a log-bucketed
// histogram whose quantile estimates carry a bounded relative error, so
// p50/p99/p999 read from a scrape are trustworthy without shipping every
// sample. Fixed-bucket Histograms stay the right tool for coarse
// Prometheus-side aggregation; QuantileHistogram is for the serving hot
// path, where "p99 = 1.8ms ± 2%" is the contract /debug/latency and the
// exported summaries are read on.

package obsv

import (
	"math"
	"sync/atomic"
)

// Quantile defaults, tuned for HTTP request latency in seconds: the
// bucket range spans 100ns..300s and estimates carry at most ±2%
// relative error. ~550 eight-byte buckets per instrument.
const (
	DefaultQuantileMin = 100e-9
	DefaultQuantileMax = 300.0
	DefaultQuantileErr = 0.02
)

// SLOQuantiles are the quantiles every summary export renders, in
// ascending order: the median, the tail the SLO is written against, and
// the deep tail that exposes shed/GC artifacts.
var SLOQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// QuantileHistogram counts observations into geometrically spaced
// buckets: bucket i spans [min·γ^i, min·γ^(i+1)) and quantile estimates
// return the geometric midpoint min·γ^(i+½), so the relative error of
// any estimate is at most √γ−1 — the RelativeError the histogram was
// built with. Observations below min clamp into the first bucket,
// observations at or above max into the last (Sum stays exact).
//
// All methods are safe for concurrent use; a nil QuantileHistogram is a
// no-op, like every other obsv instrument.
type QuantileHistogram struct {
	min       float64
	gamma     float64
	invLogG   float64 // 1 / ln γ
	sqrtGamma float64
	relErr    float64
	counts    []atomic.Int64
	count     atomic.Int64
	sumBits   atomic.Uint64
}

// NewQuantileHistogram returns a histogram covering [min, max] with
// quantile estimates accurate to ±relErr. Out-of-range or non-positive
// parameters fall back to the package defaults.
func NewQuantileHistogram(min, max, relErr float64) *QuantileHistogram {
	if !(min > 0) || !(max > min) {
		min, max = DefaultQuantileMin, DefaultQuantileMax
	}
	if !(relErr > 0) || relErr >= 1 {
		relErr = DefaultQuantileErr
	}
	gamma := (1 + relErr) * (1 + relErr) // √γ−1 = relErr
	n := int(math.Ceil(math.Log(max/min)/math.Log(gamma))) + 1
	return &QuantileHistogram{
		min:       min,
		gamma:     gamma,
		invLogG:   1 / math.Log(gamma),
		sqrtGamma: 1 + relErr,
		relErr:    relErr,
		counts:    make([]atomic.Int64, n),
	}
}

// NewLatencyQuantiles returns a QuantileHistogram with the package
// defaults — the instrument the serving layer records request latency
// (in seconds) into.
func NewLatencyQuantiles() *QuantileHistogram {
	return NewQuantileHistogram(DefaultQuantileMin, DefaultQuantileMax, DefaultQuantileErr)
}

// RelativeError returns the worst-case relative error of a quantile
// estimate.
func (h *QuantileHistogram) RelativeError() float64 {
	if h == nil {
		return 0
	}
	return h.relErr
}

// bucketIndex maps a sample to its bucket, clamping at both ends.
func (h *QuantileHistogram) bucketIndex(v float64) int {
	if !(v > h.min) {
		return 0
	}
	i := int(math.Log(v/h.min) * h.invLogG)
	if i >= len(h.counts) {
		return len(h.counts) - 1
	}
	return i
}

// bucketValue is the estimate returned for bucket i: the geometric
// midpoint of the bucket's span.
func (h *QuantileHistogram) bucketValue(i int) float64 {
	return h.min * math.Pow(h.gamma, float64(i)) * h.sqrtGamma
}

// Observe records one sample. Non-finite and negative samples are
// dropped — a poisoned timer must not destroy the whole distribution.
func (h *QuantileHistogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return
	}
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many samples were observed.
func (h *QuantileHistogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the exact sum of all observed samples.
func (h *QuantileHistogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile returns the estimated q-quantile (0 ≤ q ≤ 1) of everything
// observed so far, or 0 when empty. The estimate's relative error is
// bounded by RelativeError.
func (h *QuantileHistogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.Quantiles(q)[0]
}

// Quantiles answers several quantiles from one consistent snapshot of
// the buckets — the multi-quantile export path. qs need not be sorted.
func (h *QuantileHistogram) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if h == nil {
		return out
	}
	snap := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		snap[i] = h.counts[i].Load()
		total += snap[i]
	}
	if total == 0 {
		return out
	}
	for k, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		// The sample with rank ⌈q·total⌉ (1-based), per the standard
		// nearest-rank definition; rank 0 reads the first sample.
		rank := int64(math.Ceil(q * float64(total)))
		if rank < 1 {
			rank = 1
		}
		var cum int64
		for i := range snap {
			cum += snap[i]
			if cum >= rank {
				out[k] = h.bucketValue(i)
				break
			}
		}
	}
	return out
}
