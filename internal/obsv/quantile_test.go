package obsv

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exactQuantile is the nearest-rank quantile over a sorted sample set —
// the ground truth the histogram estimates are checked against.
func exactQuantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// checkAccuracy observes samples and asserts every SLO quantile
// estimate is within the sketch's relative-error bound, quantileErr, of
// the exact quantile.
func checkAccuracy(t *testing.T, name string, samples []float64) {
	t.Helper()
	h := NewLatencyQuantiles()
	for _, v := range samples {
		h.Observe(v)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	// Bucketing error plus the discrete nearest-rank step: allow a hair
	// beyond the advertised bound for the rank straddling a bucket edge.
	bound := quantileErr * 1.0001
	for i, got := range h.Quantiles(SLOQuantiles...) {
		q := SLOQuantiles[i]
		want := exactQuantile(sorted, q)
		rel := math.Abs(got-want) / want
		if rel > bound {
			t.Errorf("%s: p%g = %g, exact %g: relative error %.4f > bound %.4f",
				name, q*100, got, want, rel, bound)
		}
	}
	if h.Count() != int64(len(samples)) {
		t.Errorf("%s: count = %d, want %d", name, h.Count(), len(samples))
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	if math.Abs(h.Sum()-sum) > 1e-9*math.Abs(sum) {
		t.Errorf("%s: sum = %g, want %g", name, h.Sum(), sum)
	}
}

// TestQuantileAccuracy is the acceptance test for the bounded-relative-
// error contract, across the three latency shapes query traffic
// produces: uniform (flat service time), zipf (heavy cache-hit head
// with a long miss tail), and bimodal (fast cache hits + slow builds).
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	uniform := make([]float64, 20000)
	for i := range uniform {
		uniform[i] = 1e-4 + rng.Float64()*0.05 // 100µs..50ms
	}
	checkAccuracy(t, "uniform", uniform)

	zipf := rand.NewZipf(rng, 1.3, 1, 1<<20)
	zipfs := make([]float64, 20000)
	for i := range zipfs {
		zipfs[i] = 10e-6 * float64(1+zipf.Uint64()) // 10µs × zipf rank
	}
	checkAccuracy(t, "zipf", zipfs)

	bimodal := make([]float64, 20000)
	for i := range bimodal {
		if rng.Float64() < 0.9 {
			bimodal[i] = 15e-6 + rng.Float64()*10e-6 // cache hit: ~15–25µs
		} else {
			bimodal[i] = 0.2 + rng.Float64()*0.3 // cold build: 200–500ms
		}
	}
	checkAccuracy(t, "bimodal", bimodal)
}

// TestQuantileClamping pins the documented out-of-range behavior: the
// ends clamp into the edge buckets, the sum stays exact, and garbage
// samples are dropped.
func TestQuantileClamping(t *testing.T) {
	h := NewLatencyQuantiles()
	h.Observe(1e-12) // below quantileMin: clamps into the first bucket
	h.Observe(1e4)   // above quantileMax: clamps into the last bucket
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(-1)
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2 (NaN/Inf/negative dropped)", h.Count())
	}
	ends := h.Quantiles(0, 1)
	if got := ends[0]; got > quantileMin*(1+quantileErr) {
		t.Errorf("underflow clamp: p0 = %g, want ≤ min bucket estimate", got)
	}
	if got := ends[1]; got < quantileMax*(1-quantileErr) {
		t.Errorf("overflow clamp: p100 = %g, want ≥ max bucket estimate", got)
	}
	if want := 1e-12 + 1e4; math.Abs(h.Sum()-want) > 1e-9 {
		t.Errorf("sum = %g, want %g (exact despite clamping)", h.Sum(), want)
	}
	if got := (*QuantileHistogram)(nil).Quantiles(0.5)[0]; got != 0 {
		t.Errorf("nil quantile = %g, want 0", got)
	}
	(*QuantileHistogram)(nil).Observe(1) // must not panic
}

// TestQuantileConcurrentRecording hammers one histogram from many
// goroutines — the -race gate — and asserts exact totals plus a sane
// median afterward.
func TestQuantileConcurrentRecording(t *testing.T) {
	h := NewLatencyQuantiles()
	const goroutines = 16
	const perG = 5000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(n)))
			for j := 0; j < perG; j++ {
				h.Observe(1e-4 * (1 + rng.Float64()))
				if j%64 == 0 {
					_ = h.Quantiles(0.5, 0.99) // readers race recorders
				}
			}
		}(i)
	}
	wg.Wait()
	if got, want := h.Count(), int64(goroutines*perG); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	p50 := h.Quantiles(0.5)[0]
	if p50 < 1e-4 || p50 > 2.1e-4 {
		t.Errorf("p50 = %g, want within (1e-4, 2e-4] ± bound", p50)
	}
}

// TestSummaryExposition pins the Prometheus summary rendering: quantile
// label series, _sum, _count, and the summary TYPE comment.
func TestSummaryExposition(t *testing.T) {
	reg := NewRegistry()
	s := reg.Summary("rr_latency_seconds", "request latency", "route", "stats")
	for i := 0; i < 1000; i++ {
		s.Observe(0.010) // all samples 10ms → every quantile ≈ 10ms
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE rr_latency_seconds summary",
		`rr_latency_seconds{route="stats",quantile="0.5"} 0.00`,
		`rr_latency_seconds{route="stats",quantile="0.9"} `,
		`rr_latency_seconds{route="stats",quantile="0.99"} `,
		`rr_latency_seconds{route="stats",quantile="0.999"} `,
		`rr_latency_seconds_sum{route="stats"} `,
		`rr_latency_seconds_count{route="stats"} 1000`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every quantile of a constant distribution estimates the constant
	// within the advertised bound.
	for i, got := range s.Quantiles(SLOQuantiles...) {
		if math.Abs(got-0.010)/0.010 > quantileErr {
			t.Errorf("p%g = %g, want 0.010 ± %.0f%%", SLOQuantiles[i]*100, got, quantileErr*100)
		}
	}
	if got := reg.Value("rr_latency_seconds", "route", "stats"); got != 1000 {
		t.Errorf("Value = %d, want 1000", got)
	}
}
