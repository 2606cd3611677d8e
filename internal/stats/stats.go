// Package stats provides the small statistical toolkit the analysis
// pipeline needs: empirical CDFs, percentiles, plain and trimmed means,
// sparklines and fixed-width table rendering for the report harness.
// Everything operates on float64 slices and is deterministic.
package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"unicode/utf8"
)

// CDF is an empirical cumulative distribution function over a sample.
// The zero value is an empty distribution.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from a sample. The input slice is copied and may be
// reused by the caller.
func NewCDF(sample []float64) *CDF {
	s := slices.Clone(sample)
	slices.Sort(s)
	return &CDF{sorted: s}
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// At returns F(x) = P(X <= x), the fraction of the sample at or below x.
// An empty CDF returns 0.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	i, _ := slices.BinarySearch(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Below returns P(X < x), the fraction of the sample strictly below x.
func (c *CDF) Below(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i, _ := slices.BinarySearch(c.sorted, x)
	return float64(i) / float64(len(c.sorted))
}

// Above returns P(X > x).
func (c *CDF) Above(x float64) float64 { return 1 - c.At(x) }

// Quantile returns the q-th quantile (0<=q<=1) using the nearest-rank
// method. An empty CDF returns NaN.
func (c *CDF) Quantile(q float64) float64 {
	n := len(c.sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[n-1]
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.sorted[idx]
}

// Median returns the 0.5 quantile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Min returns the smallest sample value, or NaN when empty.
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[0]
}

// Max returns the largest sample value, or NaN when empty.
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[len(c.sorted)-1]
}

// Mean returns the arithmetic mean of xs, or NaN when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TrimmedMean returns the mean of xs after discarding the lowest and
// highest trim fraction of values (0 <= trim < 0.5). With too few samples
// to trim, it falls back to the plain mean. AS hegemony uses trim = 0.1.
func TrimmedMean(xs []float64, trim float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if trim <= 0 {
		return Mean(xs)
	}
	if trim >= 0.5 {
		trim = 0.49
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Floor(trim * float64(len(s))))
	s = s[k : len(s)-k]
	if len(s) == 0 {
		return Mean(xs)
	}
	return Mean(s)
}

// Pct formats a ratio as a percentage with one decimal ("83.4%").
func Pct(ratio float64) string {
	if math.IsNaN(ratio) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*ratio)
}

// Table renders aligned text tables for the report harness. Append a
// header then rows; String renders with column padding.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells beyond the header width are kept and the
// table widens to accommodate them.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddRowf appends a row formatting each cell with fmt.Sprint.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with two-space gutters and a dashed rule under
// the header.
func (t *Table) String() string {
	ncol := len(t.header)
	for _, r := range t.rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	widths := make([]int, ncol)
	measure := func(r []string) {
		for i, c := range r {
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < ncol; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
		}
		// Trim trailing padding.
		s := b.String()
		b.Reset()
		b.WriteString(strings.TrimRight(s, " "))
		b.WriteByte('\n')
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		rule := make([]string, ncol)
		for i := range rule {
			rule[i] = strings.Repeat("-", widths[i])
		}
		writeRow(rule)
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// sparkTicks are the eighth-block characters used by Sparkline.
var sparkTicks = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values in [0,1] as a compact block-character strip —
// the report uses it to sketch each cohort's CDF curve next to its
// summary row. Values outside [0,1] are clamped; an empty input yields
// an empty string.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	out := make([]rune, len(values))
	for i, v := range values {
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		idx := int(v * float64(len(sparkTicks)-1))
		out[i] = sparkTicks[idx]
	}
	return string(out)
}

// CurveSparkline samples F(x) at k evenly spaced x positions across
// [lo, hi] and renders the resulting curve.
func (c *CDF) CurveSparkline(lo, hi float64, k int) string {
	if c.N() == 0 || k <= 0 || hi <= lo {
		return ""
	}
	vals := make([]float64, k)
	for i := 0; i < k; i++ {
		x := lo + (hi-lo)*float64(i)/float64(k-1)
		vals[i] = c.At(x)
	}
	return Sparkline(vals)
}
