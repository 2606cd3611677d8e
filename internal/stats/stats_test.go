package stats

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3, 10})
	tests := []struct {
		x    float64
		want float64
	}{
		{0, 0},
		{1, 0.2},
		{1.5, 0.2},
		{2, 0.6},
		{3, 0.8},
		{9.99, 0.8},
		{10, 1},
		{100, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("At(%g) = %g, want %g", tt.x, got, tt.want)
		}
	}
}

func TestCDFBelowAbove(t *testing.T) {
	c := NewCDF([]float64{0, 0, 5, 10})
	if got := c.Below(0); got != 0 {
		t.Errorf("Below(0) = %g, want 0", got)
	}
	if got := c.At(0); got != 0.5 {
		t.Errorf("At(0) = %g, want 0.5", got)
	}
	if got := c.Above(0); got != 0.5 {
		t.Errorf("Above(0) = %g, want 0.5", got)
	}
	if got := c.Above(10); got != 0 {
		t.Errorf("Above(10) = %g, want 0", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.N() != 0 || c.At(5) != 0 || c.Below(5) != 0 {
		t.Error("empty CDF should report zero everywhere")
	}
	if !math.IsNaN(c.Quantile(0.5)) || !math.IsNaN(c.Min()) || !math.IsNaN(c.Max()) {
		t.Error("empty CDF quantile/min/max should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	tests := []struct{ q, want float64 }{
		{0, 1}, {0.25, 1}, {0.5, 2}, {0.75, 3}, {1, 4}, {0.99, 4}, {-1, 1}, {2, 4},
	}
	for _, tt := range tests {
		if got := c.Quantile(tt.q); got != tt.want {
			t.Errorf("Quantile(%g) = %g, want %g", tt.q, got, tt.want)
		}
	}
	if c.Median() != 2 {
		t.Errorf("Median = %g", c.Median())
	}
	if c.Min() != 1 || c.Max() != 4 {
		t.Errorf("Min/Max = %g/%g", c.Min(), c.Max())
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{2, 4, 6}); m != 4 {
		t.Errorf("Mean = %g", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestTrimmedMean(t *testing.T) {
	xs := []float64{0, 1, 1, 1, 1, 1, 1, 1, 1, 100}
	if got := TrimmedMean(xs, 0.1); got != 1 {
		t.Errorf("TrimmedMean(10%%) = %g, want 1", got)
	}
	if got := TrimmedMean(xs, 0); got != Mean(xs) {
		t.Errorf("TrimmedMean(0) = %g, want mean", got)
	}
	if got := TrimmedMean([]float64{5}, 0.1); got != 5 {
		t.Errorf("TrimmedMean single = %g", got)
	}
	if !math.IsNaN(TrimmedMean(nil, 0.1)) {
		t.Error("TrimmedMean(nil) should be NaN")
	}
	// Excessive trim clamps rather than emptying the sample.
	if got := TrimmedMean([]float64{1, 2, 3}, 0.9); math.IsNaN(got) {
		t.Error("over-trim should not yield NaN")
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.834); got != "83.4%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(math.NaN()); got != "n/a" {
		t.Errorf("Pct(NaN) = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "count")
	tb.AddRow("alpha", "10")
	tb.AddRowf("b", 3.14159)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "count") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("rule = %q", lines[1])
	}
	if !strings.Contains(lines[3], "3.14") {
		t.Errorf("float row = %q", lines[3])
	}
	// No trailing spaces on any line.
	for _, l := range lines {
		if strings.HasSuffix(l, " ") {
			t.Errorf("trailing space on %q", l)
		}
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("a")
	tb.AddRow("x", "extra", "wide-cell")
	out := tb.String()
	if !strings.Contains(out, "wide-cell") {
		t.Errorf("ragged row dropped: %q", out)
	}
}

// Property: CDF.At is monotone nondecreasing and bounded in [0,1];
// Quantile and At are near-inverse.
func TestCDFProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		c := NewCDF(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := c.Quantile(q)
			if v < prev {
				return false // quantile must be monotone
			}
			prev = v
			at := c.At(v)
			if at < 0 || at > 1 {
				return false
			}
			// At(Quantile(q)) >= q (nearest-rank guarantee).
			if q > 0 && at+1e-9 < q {
				return false
			}
		}
		s := slices.Clone(xs)
		slices.Sort(s)
		return c.Min() == s[0] && c.Max() == s[n-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: TrimmedMean lies within [Min, Max] of the sample.
func TestTrimmedMeanBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		tm := TrimmedMean(xs, 0.1)
		c := NewCDF(xs)
		return tm >= c.Min()-1e-9 && tm <= c.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty input should render empty")
	}
	got := Sparkline([]float64{0, 0.5, 1})
	runes := []rune(got)
	if len(runes) != 3 {
		t.Fatalf("len = %d", len(runes))
	}
	if runes[0] != '▁' || runes[2] != '█' {
		t.Errorf("endpoints = %q", got)
	}
	// Clamping.
	clamped := []rune(Sparkline([]float64{-5, 7}))
	if clamped[0] != '▁' || clamped[1] != '█' {
		t.Errorf("clamped = %q", string(clamped))
	}
}

func TestCurveSparkline(t *testing.T) {
	c := NewCDF([]float64{0, 25, 50, 75, 100})
	got := []rune(c.CurveSparkline(0, 100, 5))
	if len(got) != 5 {
		t.Fatalf("len = %d", len(got))
	}
	// Monotone nondecreasing glyphs.
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Errorf("curve not monotone: %q", string(got))
		}
	}
	if NewCDF(nil).CurveSparkline(0, 100, 5) != "" {
		t.Error("empty CDF should render empty")
	}
	if c.CurveSparkline(100, 0, 5) != "" {
		t.Error("inverted range should render empty")
	}
}
