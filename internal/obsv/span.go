package obsv

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Attr is one span attribute. Values are stringified at attach time so
// exports need no reflection.
type Attr struct {
	Key   string
	Value string
}

// KV builds an Attr from any value; a request span's strings and ints skip fmt.
func KV(key string, value any) Attr {
	switch v := value.(type) {
	case string:
		return Attr{Key: key, Value: v}
	case int:
		return Attr{Key: key, Value: strconv.Itoa(v)}
	}
	return Attr{Key: key, Value: fmt.Sprint(value)}
}

// SpanEvent is one completed (or still-open) span in the flat export.
// IDs are assigned in start order, so sorting by ID reproduces the
// order spans were opened.
type SpanEvent struct {
	ID     int64
	Parent int64 // 0 for root spans
	Name   string
	Start  time.Time
	End    time.Time // zero while the span is open
	Attrs  []Attr
}

// Attr returns the value of the first attribute named key ("" when
// absent).
func (e SpanEvent) Attr(key string) string {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Wall returns the span duration (zero while open).
func (e SpanEvent) Wall() time.Duration {
	if e.End.IsZero() {
		return 0
	}
	return e.End.Sub(e.Start)
}

// Tracer records hierarchical spans. It is safe for concurrent use and
// append-only: ended spans stay recorded until Reset — unless a cap was
// set (NewBoundedTracer), in which case the oldest spans are discarded
// once the log exceeds it, so a long-running daemon can keep a tracer
// attached under production load. A nil Tracer is a valid no-op, as is
// any Span it hands out, so instrumented code needs no conditionals.
type Tracer struct {
	mu     sync.Mutex
	nextID int64
	cap    int // > 0: retain at most ~cap spans (amortized compaction)
	spans  []*spanRecord
}

type spanRecord struct {
	id, parent int64
	name       string
	start, end time.Time
	attrs      []Attr
}

// Span is one open span. End it exactly once; SetAttr before End.
type Span struct {
	t   *Tracer
	rec *spanRecord
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// NewBoundedTracer returns a tracer that retains roughly the last cap
// spans: the span log compacts (oldest first) whenever it reaches twice
// the cap, so memory stays bounded while recent request trees — the
// ones /debug/trace is consulted for — survive intact. cap ≤ 0 means
// unbounded, same as NewTracer.
func NewBoundedTracer(cap int) *Tracer { return &Tracer{cap: cap} }

type tracerKeyType struct{}

var tracerKey tracerKeyType

// ContextWithTracer returns a child context carrying t, the root of
// span parentage for everything below it.
func ContextWithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, &spanScope{tracer: t})
}

// TracerFrom extracts the tracer carried by ctx (nil when absent).
func TracerFrom(ctx context.Context) *Tracer {
	if sc, ok := ctx.Value(tracerKey).(*spanScope); ok {
		return sc.tracer
	}
	return nil
}

// spanScope links a context position to its enclosing span, so child
// spans started from a derived context nest under it.
type spanScope struct {
	tracer *Tracer
	spanID int64
}

// StartSpan opens a span named name under whatever span encloses ctx
// (the tracer itself when none does). When ctx carries no tracer the
// returned span is nil — a no-op — and ctx is returned unchanged, so
// instrumented call sites pay nothing when tracing is off.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	sc, ok := ctx.Value(tracerKey).(*spanScope)
	if !ok || sc.tracer == nil {
		return ctx, nil
	}
	sp := sc.tracer.start(sc.spanID, name, attrs)
	return context.WithValue(ctx, tracerKey, &spanScope{tracer: sc.tracer, spanID: sp.rec.id}), sp
}

func (t *Tracer) start(parent int64, name string, attrs []Attr) *Span {
	rec := &spanRecord{
		parent: parent,
		name:   name,
		start:  time.Now(),
		attrs:  append([]Attr(nil), attrs...),
	}
	t.mu.Lock()
	t.nextID++
	rec.id = t.nextID
	t.spans = append(t.spans, rec)
	if t.cap > 0 && len(t.spans) >= 2*t.cap {
		// Amortized O(1): copy the newest cap spans into a fresh slice
		// so the discarded prefix is actually released.
		kept := make([]*spanRecord, t.cap)
		copy(kept, t.spans[len(t.spans)-t.cap:])
		t.spans = kept
	}
	t.mu.Unlock()
	return &Span{t: t, rec: rec}
}

// SetAttr attaches (or appends) an attribute to the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.rec.attrs = append(s.rec.attrs, KV(key, value))
	s.t.mu.Unlock()
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if s.rec.end.IsZero() {
		s.rec.end = time.Now()
	}
	s.t.mu.Unlock()
}

// Reset drops all recorded spans (between report runs, say).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.nextID = 0
	t.mu.Unlock()
}

// Events exports the flat span log in start order. The slices are
// copies; mutating them does not affect the tracer.
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanEvent, len(t.spans))
	for i, r := range t.spans {
		out[i] = SpanEvent{
			ID:     r.id,
			Parent: r.parent,
			Name:   r.name,
			Start:  r.start,
			End:    r.end,
			Attrs:  append([]Attr(nil), r.attrs...),
		}
	}
	return out
}

// WriteTree renders the recorded spans as an indented tree, children
// in start order under their parents. Open spans render "(open)". The
// layout is stable for a fixed span set; wall times naturally vary
// run to run.
func (t *Tracer) WriteTree(w io.Writer) error {
	if t == nil {
		return nil
	}
	events := t.Events()
	children := make(map[int64][]SpanEvent)
	for _, e := range events {
		children[e.Parent] = append(children[e.Parent], e)
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return kids[i].ID < kids[j].ID })
	}
	var render func(parent int64, depth int) error
	render = func(parent int64, depth int) error {
		for _, e := range children[parent] {
			wall := "(open)"
			if !e.End.IsZero() {
				wall = e.Wall().Round(time.Microsecond).String()
			}
			line := strings.Repeat("  ", depth) + e.Name + " " + wall
			for _, a := range e.Attrs {
				line += " " + a.Key + "=" + a.Value
			}
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
			if err := render(e.ID, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return render(0, 0)
}
