// Package obsv is the repository's dependency-free observability core:
// a concurrent metrics registry with Prometheus text exposition,
// hierarchical span tracing for the analysis pipeline, a leveled
// key=value logger, the shared HTTP request front, and the -admin
// endpoint (metrics, health, pprof, live latency) the long-running
// commands serve.
//
// The registry has three instruments: counters, gauges, and one latency
// instrument, the QuantileHistogram sketch, registered with Summary and
// exported as a Prometheus summary (p50/p90/p99/p999, _sum, _count).
//
// Everything here is stdlib-only and safe for concurrent use. Metrics
// are process-global by default (the Default registry), mirroring how
// the daemons are deployed: one process, one scrape endpoint. Tests
// that need isolation construct their own Registry.
package obsv

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricKind discriminates the three metric families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindSummary
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "summary"
	}
}

// Counter is a monotonically increasing count. All methods are safe for
// concurrent use; a nil Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n; negative deltas are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. All methods are safe for
// concurrent use; a nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the value by delta (negative allowed).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one; Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// metric is one registered series: a family name plus a fixed label
// set, holding exactly one of the three instrument types.
type metric struct {
	name   string
	labels string // rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	q      *QuantileHistogram
}

// family carries the per-name metadata shared by every labeled child.
type family struct {
	name string
	help string
	kind metricKind
}

// Registry holds metrics and renders them. The zero value is not
// usable; call NewRegistry (or use Default).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	metrics  map[string]*metric // key: name + rendered labels
	// hooks run at the top of WritePrometheus (scrape time) so
	// collectors that sample external state — the runtime collector —
	// can refresh their gauges only when someone is looking.
	hooks []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		metrics:  make(map[string]*metric),
	}
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-global registry the daemons expose via
// the admin endpoint. Package-level helpers (obsv.NewCounter etc.)
// register here.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry() })
	return defaultReg
}

// labelKey renders k/v pairs into the canonical sorted label string.
// An odd trailing key is dropped.
func labelKey(kv []string) string {
	if len(kv) < 2 {
		return ""
	}
	n := len(kv) / 2
	pairs := make([][2]string, 0, n)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, [2]string{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p[0], p[1])
	}
	b.WriteByte('}')
	return b.String()
}

// register returns the metric for (name, labels), creating it on first
// use. Conflicting re-registration of a name with a different kind is a
// programming error and panics at init time, where it is deterministic.
func (r *Registry) register(name, help string, kind metricKind, kv []string) *metric {
	labels := labelKey(kv)
	key := name + labels
	r.mu.RLock()
	m, ok := r.metrics[key]
	r.mu.RUnlock()
	if ok {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		return m
	}
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind}
		r.families[name] = fam
	} else if fam.kind != kind {
		panic(fmt.Sprintf("obsv: metric %q re-registered as %s (was %s)", name, kind, fam.kind))
	}
	m = &metric{name: name, labels: labels}
	switch kind {
	case kindCounter:
		m.c = new(Counter)
	case kindGauge:
		m.g = new(Gauge)
	case kindSummary:
		m.q = NewLatencyQuantiles()
	}
	r.metrics[key] = m
	return m
}

// Counter returns the counter named name with the given optional
// "key", "value" label pairs, registering it on first use. Subsequent
// calls with the same identity return the same instance.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	return r.register(name, help, kindCounter, kv).c
}

// Gauge is Counter for gauges.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	return r.register(name, help, kindGauge, kv).g
}

// Summary is Counter for the latency instrument: a QuantileHistogram
// exported in the Prometheus summary format with the SLOQuantiles
// (p50/p90/p99/p999), _sum and _count. Summaries use the latency
// defaults (100ns..300s, ±2%); observe seconds.
func (r *Registry) Summary(name, help string, kv ...string) *QuantileHistogram {
	return r.register(name, help, kindSummary, kv).q
}

// OnScrape registers f to run at the top of every WritePrometheus
// call, before the metric snapshot is taken. Scrape hooks let samplers
// of external state (runtime stats, say) pay their cost only when a
// scrape is actually looking.
func (r *Registry) OnScrape(f func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, f)
	r.mu.Unlock()
}

// NewCounter registers a counter on the Default registry.
func NewCounter(name, help string, kv ...string) *Counter {
	return Default().Counter(name, help, kv...)
}

// NewGauge registers a gauge on the Default registry.
func NewGauge(name, help string, kv ...string) *Gauge {
	return Default().Gauge(name, help, kv...)
}

// NewSummary registers a summary on the Default registry.
func NewSummary(name, help string, kv ...string) *QuantileHistogram {
	return Default().Summary(name, help, kv...)
}

// sortedMetrics returns every registered series sorted by family name
// then label string, the stable order both renderers use.
func (r *Registry) sortedMetrics() []*metric {
	r.mu.RLock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// formatValue renders floats the way Prometheus does: integers without
// a decimal point, +Inf as "+Inf".
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// injectLabel merges an extra k="v" pair into an already-rendered label
// string (used for summary quantile labels).
func injectLabel(labels, k, v string) string {
	pair := fmt.Sprintf("%s=%q", k, v)
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and
// series sorted by label string, so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	hooks := make([]func(), len(r.hooks))
	copy(hooks, r.hooks)
	r.mu.RUnlock()
	for _, f := range hooks {
		f()
	}
	metrics := r.sortedMetrics()
	lastFamily := ""
	for _, m := range metrics {
		if m.name != lastFamily {
			lastFamily = m.name
			r.mu.RLock()
			fam := r.families[m.name]
			r.mu.RUnlock()
			if fam.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam.name, fam.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.name, fam.kind); err != nil {
				return err
			}
		}
		if err := writeSeries(w, m); err != nil {
			return err
		}
	}
	return nil
}

func writeSeries(w io.Writer, m *metric) error {
	switch {
	case m.c != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", m.name, m.labels, m.c.Value())
		return err
	case m.g != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", m.name, m.labels, formatValue(m.g.Value()))
		return err
	default:
		q := m.q
		vals := q.Quantiles(SLOQuantiles...)
		for i, qv := range SLOQuantiles {
			ql := injectLabel(m.labels, "quantile", formatValue(qv))
			if _, err := fmt.Fprintf(w, "%s%s %s\n", m.name, ql, formatValue(vals[i])); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.name, m.labels, formatValue(q.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, m.labels, q.Count())
		return err
	}
}

// Dump renders every series as sorted "name{labels} value" lines with
// no comment lines — the deterministic form tests assert against.
// Summaries dump their count and sum series only.
func (r *Registry) Dump() string {
	var b strings.Builder
	for _, m := range r.sortedMetrics() {
		switch {
		case m.c != nil:
			fmt.Fprintf(&b, "%s%s %d\n", m.name, m.labels, m.c.Value())
		case m.g != nil:
			fmt.Fprintf(&b, "%s%s %s\n", m.name, m.labels, formatValue(m.g.Value()))
		default:
			fmt.Fprintf(&b, "%s_count%s %d\n", m.name, m.labels, m.q.Count())
			fmt.Fprintf(&b, "%s_sum%s %s\n", m.name, m.labels, formatValue(m.q.Sum()))
		}
	}
	return b.String()
}

// Value returns the current value of the series with the given name
// and labels: counter values and summary counts as their integer
// value, gauges rounded toward zero. Unregistered series read 0 —
// convenient for "did this counter move" assertions in tests.
func (r *Registry) Value(name string, kv ...string) int64 {
	key := name + labelKey(kv)
	r.mu.RLock()
	m, ok := r.metrics[key]
	r.mu.RUnlock()
	if !ok {
		return 0
	}
	switch {
	case m.c != nil:
		return m.c.Value()
	case m.g != nil:
		return int64(m.g.Value())
	default:
		return m.q.Count()
	}
}

// WriteLatency renders every registered summary as one line of live
// quantiles — "name{labels} count=N p50=… p90=… p99=… p999=…" with
// human-readable durations — the admin /debug/latency view. Summaries
// observe seconds, so the rendering assumes seconds.
func (r *Registry) WriteLatency(w io.Writer) error {
	n := 0
	for _, m := range r.sortedMetrics() {
		if m.q == nil {
			continue
		}
		n++
		vals := m.q.Quantiles(SLOQuantiles...)
		line := fmt.Sprintf("%s%s count=%d", m.name, m.labels, m.q.Count())
		for i, q := range SLOQuantiles {
			line += fmt.Sprintf(" p%s=%s", formatValue(q*100), secondsDuration(vals[i]))
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	if n == 0 {
		_, err := fmt.Fprintln(w, "no latency summaries registered")
		return err
	}
	return nil
}

// secondsDuration renders a seconds value as a rounded time.Duration.
func secondsDuration(s float64) string {
	d := time.Duration(s * float64(time.Second))
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Nanosecond).String()
	}
}
