package obsv

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestMetricsConcurrentExactTotals hammers one counter, gauge, and
// summary from N goroutines and asserts the exact totals — the -race
// gate for the registry's hot paths.
func TestMetricsConcurrentExactTotals(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	const perG = 2000

	c := reg.Counter("hammer_total", "test counter")
	g := reg.Gauge("hammer_gauge", "test gauge")
	h := reg.Summary("hammer_seconds", "test summary")

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				// Re-fetch through the registry on some iterations so the
				// lookup path races with other registrations too.
				cc := c
				if j%8 == 0 {
					cc = reg.Counter("hammer_total", "test counter")
				}
				cc.Inc()
				g.Add(1)
				g.Add(-1)
				g.Inc()
				h.Observe(float64(j%4) / 2) // 0, 0.5, 1, 1.5
			}
		}(i)
	}
	wg.Wait()

	if got, want := c.Value(), int64(goroutines*perG); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got, want := g.Value(), float64(goroutines*perG); got != want {
		t.Errorf("gauge = %g, want %g", got, want)
	}
	if got, want := h.Count(), int64(goroutines*perG); got != want {
		t.Errorf("summary count = %d, want %d", got, want)
	}
	// Each goroutine observes perG/4 each of 0, 0.5, 1, 1.5 → sum 3 per 4.
	if got, want := h.Sum(), float64(goroutines*perG)/4*3; got != want {
		t.Errorf("summary sum = %g, want %g", got, want)
	}
	// The exposition carries the exact totals, and the median (rank
	// 16000 of 32000: the last 0.5 sample) reads 0.5 within the sketch's
	// relative error.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hammer_seconds_count 32000\n", "hammer_seconds_sum 24000\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
	if p50 := h.Quantile(0.5); math.Abs(p50-0.5) > 0.5*h.RelativeError() {
		t.Errorf("p50 = %g, want 0.5 ± %g%%", p50, 100*h.RelativeError())
	}
}

// TestConcurrentLabeledRegistration races first-use registration of
// many labeled children of one family.
func TestConcurrentLabeledRegistration(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				class := string(rune('a' + j%5))
				reg.Counter("faults_total", "faults by class", "class", class).Inc()
			}
		}()
	}
	wg.Wait()
	var total int64
	for _, class := range []string{"a", "b", "c", "d", "e"} {
		total += reg.Value("faults_total", "class", class)
	}
	if total != 8*500 {
		t.Errorf("labeled counters sum = %d, want %d", total, 8*500)
	}
}

// TestWritePrometheusGolden pins the exposition format: HELP/TYPE
// comments, sorted families, sorted label sets, summary quantiles with
// quantile labels, _sum and _count series.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zz_last_total", "sorts last").Add(7)
	reg.Counter("aa_requests_total", "requests by verb", "verb", "get").Add(3)
	reg.Counter("aa_requests_total", "requests by verb", "verb", "put").Add(1)
	reg.Gauge("mm_temperature", "a gauge").Set(2.5)
	h := reg.Summary("mm_latency_seconds", "a summary")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_requests_total requests by verb
# TYPE aa_requests_total counter
aa_requests_total{verb="get"} 3
aa_requests_total{verb="put"} 1
# HELP mm_latency_seconds a summary
# TYPE mm_latency_seconds summary
mm_latency_seconds{quantile="0.5"} 0.5006
mm_latency_seconds{quantile="0.9"} 4.979
mm_latency_seconds{quantile="0.99"} 4.979
mm_latency_seconds{quantile="0.999"} 4.979
mm_latency_seconds_sum 5.55
mm_latency_seconds_count 3
# HELP mm_temperature a gauge
# TYPE mm_temperature gauge
mm_temperature 2.5
# HELP zz_last_total sorts last
# TYPE zz_last_total counter
zz_last_total 7
`
	// Quantile estimates are bucket midpoints (0.5 and 5 within ±2%);
	// compare them to four significant digits so the golden pins the
	// format, not the last float bits.
	got := strings.Split(buf.String(), "\n")
	for i, line := range got {
		if j := strings.Index(line, `{quantile="`); j >= 0 {
			k := strings.LastIndex(line, " ")
			v, err := strconv.ParseFloat(line[k+1:], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			got[i] = fmt.Sprintf("%s %.4g", line[:k], v)
		}
	}
	if strings.Join(got, "\n") != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestHistogramExpositionAgreement hammers a summary while scraping
// and asserts every rendered exposition is internally consistent:
// within one scrape the quantile lines do not decrease as q rises,
// _count never decreases from one scrape to the next, and no value is
// NaN — the invariants a reader of the SLO quantiles relies on.
func TestHistogramExpositionAgreement(t *testing.T) {
	reg := NewRegistry()
	h := reg.Summary("agree_seconds", "agreement under concurrency")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			v := []float64{0.0005, 0.005, 0.05, 0.5, 5}[n%5]
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(v)
				}
			}
		}(i)
	}
	var lastCount int64
	for scrape := 0; scrape < 200; scrape++ {
		var buf strings.Builder
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		prevQ, prev := -1.0, -1.0
		count := int64(-1)
		sawSum := false
		for _, line := range strings.Split(buf.String(), "\n") {
			if !strings.HasPrefix(line, "agree_seconds") {
				continue
			}
			v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
			if err != nil || math.IsNaN(v) {
				t.Fatalf("bad value in %q (err %v)\n%s", line, err, buf.String())
			}
			switch {
			case strings.HasPrefix(line, `agree_seconds{quantile="`):
				var q float64
				if _, err := fmt.Sscanf(line, `agree_seconds{quantile="%g"}`, &q); err != nil {
					t.Fatalf("parse %q: %v", line, err)
				}
				if q <= prevQ || v < prev {
					t.Fatalf("quantile lines out of order: %q after q=%g value %g\n%s", line, prevQ, prev, buf.String())
				}
				prevQ, prev = q, v
			case strings.HasPrefix(line, "agree_seconds_count "):
				count = int64(v)
			case strings.HasPrefix(line, "agree_seconds_sum "):
				sawSum = true
			}
		}
		if prevQ != SLOQuantiles[len(SLOQuantiles)-1] {
			t.Fatalf("exposition missing quantile lines:\n%s", buf.String())
		}
		if count < lastCount {
			t.Fatalf("_count went backwards: %d after %d\n%s", count, lastCount, buf.String())
		}
		lastCount = count
		if !sawSum {
			t.Fatalf("exposition missing _sum:\n%s", buf.String())
		}
	}
	close(stop)
	wg.Wait()
}

// TestDumpDeterministic checks the sorted test-dump form.
func TestDumpDeterministic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total", "").Add(2)
	reg.Counter("a_total", "").Add(1)
	reg.Summary("c_seconds", "").Observe(0.5)
	want := "a_total 1\nb_total 2\nc_seconds_count 1\nc_seconds_sum 0.5\n"
	if got := reg.Dump(); got != want {
		t.Errorf("Dump = %q, want %q", got, want)
	}
}

// TestRegistryIdentity checks same-identity calls share one series and
// label order does not matter.
func TestRegistryIdentity(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "", "p", "1", "q", "2")
	b := reg.Counter("x_total", "", "q", "2", "p", "1")
	if a != b {
		t.Error("label order changed metric identity")
	}
	a.Add(5)
	if got := reg.Value("x_total", "q", "2", "p", "1"); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
	if got := reg.Value("x_total"); got != 0 {
		t.Errorf("unlabeled sibling = %d, want 0", got)
	}
}

// TestNilMetricsAreNoOps ensures instrumented code can run with nil
// instruments.
func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *QuantileHistogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics leaked values")
	}
}
