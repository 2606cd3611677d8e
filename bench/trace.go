package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (spans inside the program are a later change). Times are
// nanoseconds since the trace began; Parent indexes the span that
// caused this one, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// end-to-end mode: every method is a no-op, so the timed code is the
// same with tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns how long it took; the duration
// is measured whether or not spans are recorded.
func (t *tracer) timed(name string, parent int, f func()) time.Duration {
	id := t.start(name, parent)
	begin := time.Now()
	f()
	d := time.Since(begin)
	t.end(id)
	return d
}

// addBatch appends already finished spans (per-request spans collected
// lock-free by the load workers) under parent.
func (t *tracer) addBatch(name string, parent int, begin []time.Time, lat []time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range begin {
		s := begin[i].Sub(t.t0).Nanoseconds()
		t.spans = append(t.spans, span{Name: name, Start: s, End: s + lat[i].Nanoseconds(), Parent: parent})
	}
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (overlapping children are counted
// once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// write dumps the spans with their self times as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	type out struct {
		span
		Self int64 `json:"self"`
	}
	self := selfTimes(t.spans)
	rows := make([]out, len(t.spans))
	for i, s := range t.spans {
		rows[i] = out{s, self[i]}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
