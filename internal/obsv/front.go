// front.go is the one HTTP request front every serving face shares
// (manrsd's /v1 routes, manrs-gw's proxy and relay): per named route
// it honors or mints the W3C traceparent and echoes it, opens a span
// when a tracer is attached, admits the request or sheds it with a
// pressure-scaled Retry-After, applies the request deadline, and
// funnels every exit through one emit — so the RED counter, the
// duration summary, the span status and the sampled access-log record
// all read the same Request and cannot drift apart. What differs
// between the faces (cache vs ring, handlers vs forward) stays in the
// handler the front wraps.

package obsv

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// FrontOptions configures a Front. The caller resolves its own
// defaults; the front applies what it is given.
type FrontOptions struct {
	// Prefix names the metric families (<Prefix>_requests_total,
	// <Prefix>_request_duration_seconds, <Prefix>_inflight_requests,
	// <Prefix>_shed_total, <Prefix>_access_log_{written,suppressed}_total)
	// and the span (<Prefix>.query).
	Prefix string
	// Msg is the access-log record's msg ("request", "proxy").
	Msg string
	// Extra are alternating key, default-value pairs every access
	// record and span carries after the common keys; handlers overwrite
	// the values with Request.Set.
	Extra []any
	// MaxInFlight bounds concurrently admitted requests; arrivals
	// beyond it are shed with 503 + Retry-After instead of queueing.
	MaxInFlight int
	// RequestTimeout is the deadline on the context handlers receive.
	RequestTimeout time.Duration
	Registry       *Registry
	// Tracer, when non-nil, records one span per request.
	Tracer *Tracer
	// AccessLog, when non-nil, receives one key=value record per
	// sampled request; AccessLogSample logs 1-in-N by arrival order
	// (≤ 1 logs everything). Server errors (5xx, sheds included) bypass
	// the sample: they are exactly the requests an operator greps for.
	AccessLog       *Logger
	AccessLogSample int
}

// Front is the shared request front; see the file comment.
type Front struct {
	opts FrontOptions
	sem  chan struct{}
	// shedStreak counts consecutive sheds since the last successful
	// admission — the pressure signal behind Retry-After scaling.
	shedStreak atomic.Int64
	logSeq     atomic.Uint64

	inflight   *Gauge
	shed       *Counter
	written    *Counter
	suppressed *Counter
}

// NewFront returns a Front over opts.
func NewFront(opts FrontOptions) *Front {
	reg, p := opts.Registry, opts.Prefix
	return &Front{
		opts:     opts,
		sem:      make(chan struct{}, opts.MaxInFlight),
		inflight: reg.Gauge(p+"_inflight_requests", "requests currently admitted"),
		shed:     reg.Counter(p+"_shed_total", "requests shed with 503 at the admission limit"),
		written: reg.Counter(p+"_access_log_written_total",
			"access log records written (sampled + always-logged errors)"),
		suppressed: reg.Counter(p+"_access_log_suppressed_total",
			"requests the access-log head sample skipped"),
	}
}

// Request is one request's single-exit record. The front fills Trace
// and Span; the handler sets Code (always), Snapshot and the extras it
// knows, and Outcome only where the status alone does not say it.
type Request struct {
	Trace    TraceContext
	Span     *Span // nil when no tracer is attached; nil-safe
	Code     int
	Outcome  string // "" derives from Code: ok | not_modified | timeout | error
	Snapshot string // snapshot version the answer came from
	extra    []any
}

// Set overwrites the value of one of the front's Extra keys.
func (rq *Request) Set(key string, value any) {
	for i := 0; i+1 < len(rq.extra); i += 2 {
		if rq.extra[i] == key {
			rq.extra[i+1] = value
		}
	}
}

// Error answers with the JSON error envelope and records the status.
func (rq *Request) Error(w http.ResponseWriter, code int, msg string) {
	rq.Code = code
	WriteError(w, code, msg)
}

func (rq *Request) outcome() string {
	switch {
	case rq.Outcome != "":
		return rq.Outcome
	case rq.Code == http.StatusNotModified:
		return "not_modified"
	case rq.Code == http.StatusGatewayTimeout:
		return "timeout"
	case rq.Code >= 400:
		return "error"
	}
	return "ok"
}

// WriteError renders the uniform JSON error envelope.
func WriteError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	body, _ := json.Marshal(struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}{msg, code})
	_, _ = w.Write(append(body, '\n'))
}

// globalRand adapts the locked math/rand global source to Uint64Source
// for server-side trace minting.
type globalRand struct{}

func (globalRand) Uint64() uint64 { return rand.Uint64() }

// traceFor extracts the caller's W3C trace context from the
// traceparent header, or mints a fresh one, so every request is
// correlatable across access logs and span trees even when the client
// sends nothing.
func traceFor(r *http.Request) TraceContext {
	if tc, ok := ParseTraceParent(r.Header.Get("traceparent")); ok {
		return tc
	}
	return MakeTraceContext(globalRand{})
}

// Route wraps h as the route named name. The name is the metric label,
// so it must come from a fixed set — never from the URL.
func (f *Front) Route(name string, h func(ctx context.Context, w http.ResponseWriter, r *http.Request, rq *Request)) http.HandlerFunc {
	reg, p := f.opts.Registry, f.opts.Prefix
	spanName := p + ".query"
	duration := reg.Summary(p+"_request_duration_seconds",
		"request latency quantiles by route (all outcomes, sheds included)", "route", name)
	// Instruments resolve once per (route, code), not per request.
	var codes sync.Map
	requests := func(code int) *Counter {
		if c, ok := codes.Load(code); ok {
			return c.(*Counter)
		}
		c := reg.Counter(p+"_requests_total", "requests by route and status",
			"route", name, "code", strconv.Itoa(code))
		codes.Store(code, c)
		return c
	}

	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx := r.Context()
		rq := &Request{Trace: traceFor(r), extra: append([]any(nil), f.opts.Extra...)}
		w.Header().Set("Traceparent", rq.Trace.String())
		if f.opts.Tracer != nil {
			ctx, rq.Span = StartSpan(ContextWithTracer(ctx, f.opts.Tracer), spanName,
				KV("route", name), KV("path", r.URL.Path), KV("trace", rq.Trace.TraceIDString()))
			defer rq.Span.End()
		}

		defer func() {
			wall := time.Since(start)
			// A shed response is latency the client really observed, so
			// the summary sees every outcome.
			duration.Observe(wall.Seconds())
			requests(rq.Code).Inc()
			rq.Outcome = rq.outcome()
			if rq.Span != nil {
				rq.Span.SetAttr("status", rq.Code)
				rq.Span.SetAttr("outcome", rq.Outcome)
				for i := 0; i+1 < len(rq.extra); i += 2 {
					rq.Span.SetAttr(rq.extra[i].(string), rq.extra[i+1])
				}
			}
			f.log(name, r.URL.Path, rq, wall)
		}()

		// Admission: acquire a slot or shed. A bounded queue would still
		// grow unbounded latency under sustained overload; a fast 503
		// lets well-behaved clients back off and retry.
		select {
		case f.sem <- struct{}{}:
			f.shedStreak.Store(0)
		default:
			f.shed.Inc()
			rq.Outcome = "shed"
			w.Header().Set("Retry-After", strconv.Itoa(f.retryAfter()))
			rq.Error(w, http.StatusServiceUnavailable, "overloaded: admission limit reached, retry later")
			return
		}
		defer func() { <-f.sem }()
		f.inflight.Inc()
		defer f.inflight.Dec()

		ctx, cancel := context.WithTimeout(ctx, f.opts.RequestTimeout)
		defer cancel()
		h(ctx, w, r, rq)
	}
}

// retryAfter scales the shed Retry-After with pressure: one second at
// the first shed, one more for every MaxInFlight consecutive sheds —
// the deeper the overload, the longer well-behaved clients stay away —
// capped at a minute so a transient spike cannot park clients forever.
func (f *Front) retryAfter() int {
	streak := f.shedStreak.Add(1)
	return min(1+int(streak-1)/f.opts.MaxInFlight, 60)
}

// log writes the sampled access record of a finished request.
func (f *Front) log(route, path string, rq *Request, wall time.Duration) {
	if f.opts.AccessLog == nil {
		return
	}
	n := f.logSeq.Add(1)
	if sample := f.opts.AccessLogSample; rq.Code < 500 && sample > 1 && n%uint64(sample) != 1 {
		f.suppressed.Inc()
		return
	}
	f.written.Inc()
	kv := append(make([]any, 0, 14+len(rq.extra)),
		"trace", rq.Trace.TraceIDString(),
		"route", route,
		"path", path,
		"status", rq.Code,
		"dur_us", wall.Microseconds(),
		"snapshot", rq.Snapshot)
	kv = append(kv, rq.extra...)
	f.opts.AccessLog.Info(f.opts.Msg, append(kv, "outcome", rq.Outcome)...)
}
