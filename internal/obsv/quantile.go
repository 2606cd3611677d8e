// quantile.go is the repository's one latency instrument: a
// log-bucketed sketch whose quantile estimates carry a bounded relative
// error, so p50/p99/p999 read from a scrape are trustworthy without
// shipping every sample. Every latency — request routes, snapshot
// builds and persists, pool queue waits, whois answers — is registered
// with Registry.Summary and read on the same contract ("p99 = 1.8ms ±
// 2%") at /metrics. Every sketch shares one bucket geometry, which is
// what an exact fleet-wide merge would need.

package obsv

import (
	"math"
	"sync/atomic"
)

// The sketch's parameters, tuned for latency in seconds: buckets span
// 100ns..300s and estimates carry at most ±2% relative error. ~550
// eight-byte buckets per instrument.
const (
	quantileMin = 100e-9
	quantileMax = 300.0
	quantileErr = 0.02
)

// SLOQuantiles are the quantiles every summary export renders, in
// ascending order: the median, the tail the SLO is written against, and
// the deep tail that exposes shed/GC artifacts.
var SLOQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// The bucket geometry every sketch shares: bucket i spans
// [quantileMin·γ^i, quantileMin·γ^(i+1)) with √γ−1 = quantileErr.
var (
	gamma    = (1 + quantileErr) * (1 + quantileErr)
	invLogG  = 1 / math.Log(gamma)
	nBuckets = int(math.Ceil(math.Log(quantileMax/quantileMin)/math.Log(gamma))) + 1
)

// QuantileHistogram counts observations into geometrically spaced
// buckets, and quantile estimates return the bucket's geometric
// midpoint quantileMin·γ^(i+½), so the relative error of any estimate
// is at most √γ−1 = quantileErr. Observations below quantileMin clamp
// into the first bucket, observations at or above quantileMax into the
// last (Sum stays exact).
//
// All methods are safe for concurrent use; a nil QuantileHistogram is a
// no-op, like every other obsv instrument.
type QuantileHistogram struct {
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// NewLatencyQuantiles returns an empty sketch — the instrument behind
// every Registry.Summary, observing seconds.
func NewLatencyQuantiles() *QuantileHistogram {
	return &QuantileHistogram{counts: make([]atomic.Int64, nBuckets)}
}

// bucketIndex maps a sample to its bucket, clamping at both ends.
func (h *QuantileHistogram) bucketIndex(v float64) int {
	if !(v > quantileMin) {
		return 0
	}
	i := int(math.Log(v/quantileMin) * invLogG)
	if i >= len(h.counts) {
		return len(h.counts) - 1
	}
	return i
}

// bucketValue is the estimate returned for bucket i: the geometric
// midpoint of the bucket's span.
func bucketValue(i int) float64 {
	return quantileMin * math.Pow(gamma, float64(i)) * (1 + quantileErr)
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

// Quantiles estimates each q-quantile (0 ≤ q ≤ 1) of everything
// observed so far from one consistent snapshot of the buckets, 0 when
// empty; each estimate is within ±quantileErr. qs need not be sorted.
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
				out[k] = bucketValue(i)
				break
			}
		}
	}
	return out
}
