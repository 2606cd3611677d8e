// server.go is the HTTP face of the query layer: routing, snapshot
// resolution, the snapshot-version-keyed response cache with ETag/
// If-None-Match revalidation, and JSON rendering. Admission, trace
// correlation, deadlines, RED/access-log emission and the listener
// lifecycle are the shared obsv.Front and obsv.HTTPServer.

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"manrsmeter/internal/obsv"
)

// Options tunes a Server.
type Options struct {
	// MaxInFlight bounds concurrently served /v1 requests; arrivals
	// beyond it are shed with 503 + Retry-After instead of queueing.
	// ≤ 0 means DefaultMaxInFlight.
	MaxInFlight int
	// RequestTimeout bounds one request end to end, including a cold
	// snapshot build the request waits on; ≤ 0 means
	// DefaultRequestTimeout. Expiry answers 504.
	RequestTimeout time.Duration
	// Registry receives the serving metrics; nil means obsv.Default().
	Registry *obsv.Registry
	// Tracer, when non-nil, records query → snapshot → pipeline spans.
	Tracer *obsv.Tracer
	// Logf, when set, receives operational events (serve errors).
	Logf func(format string, args ...any)
	// AccessLog, when non-nil, receives the sampled structured access
	// log (one key=value record per sampled request: trace ID, route,
	// status, latency, snapshot version, cache outcome).
	AccessLog *obsv.Logger
	// AccessLogSample head-samples the access log: 1-in-N requests are
	// logged, server errors always. ≤ 0 means DefaultAccessLogSample;
	// 1 logs every request.
	AccessLogSample int
}

// Serving defaults, exported so cmd/manrsd can document them in -help.
const (
	DefaultMaxInFlight    = 256
	DefaultRequestTimeout = 30 * time.Second
	// DefaultAccessLogSample is the default head-sampling rate: one in
	// every N requests is logged (server errors always are), so full-
	// rate logging never becomes the bottleneck under load.
	DefaultAccessLogSample = 64
	// cacheCap bounds the response cache; entries are evicted FIFO.
	cacheCap = 4096
)

// Server answers MANRS conformance queries over HTTP/JSON from a
// snapshot Store. Construct with NewServer, serve with Listen or
// Serve, stop with Shutdown (drains in-flight requests) — the same
// lifecycle as every other daemon harness in this repository.
type Server struct {
	obsv.HTTPServer
	store *Store
	opts  Options
	front *obsv.Front

	cacheMu    sync.Mutex
	cache      map[string]cachedResponse
	cacheOrder []string

	// peerEncoded memoizes durable-encoded archives served to peers
	// over /peer/snapshot, keyed by snapshot version (FIFO, bounded).
	peerMu      sync.Mutex
	peerEncoded map[string][]byte
	peerOrder   []string

	met serverMetrics
}

type cachedResponse struct {
	body []byte
	etag string
}

type serverMetrics struct {
	cacheHits   *obsv.Counter
	cacheMisses *obsv.Counter
	notModified *obsv.Counter
}

// NewServer returns a Server over store.
func NewServer(store *Store, opts Options) *Server {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = DefaultMaxInFlight
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	if opts.AccessLogSample <= 0 {
		opts.AccessLogSample = DefaultAccessLogSample
	}
	reg := opts.Registry
	if reg == nil {
		reg = obsv.Default()
	}
	return &Server{
		store:       store,
		opts:        opts,
		cache:       make(map[string]cachedResponse),
		peerEncoded: make(map[string][]byte),
		front: obsv.NewFront(obsv.FrontOptions{
			Prefix:          "serve",
			Msg:             "request",
			Extra:           []any{"cache", "bypass"}, // hit | miss | bypass
			MaxInFlight:     opts.MaxInFlight,
			RequestTimeout:  opts.RequestTimeout,
			Registry:        reg,
			Tracer:          opts.Tracer,
			AccessLog:       opts.AccessLog,
			AccessLogSample: opts.AccessLogSample,
		}),
		met: serverMetrics{
			cacheHits:   reg.Counter("serve_cache_hits_total", "responses served from the version-keyed cache"),
			cacheMisses: reg.Counter("serve_cache_misses_total", "responses rendered afresh"),
			notModified: reg.Counter("serve_not_modified_total", "304 revalidations via If-None-Match"),
		},
	}
}

// Handler returns the serving mux, so tests (and embedders) can drive
// it without a socket.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "manrsd — MANRS conformance query daemon\n"+
			"GET /v1/as/{asn}/conformance\n"+
			"GET /v1/prefix/{prefix}[?origin=ASN]\n"+
			"GET /v1/stats\n"+
			"GET /v1/report\n"+
			"GET /v1/report/{section}\n"+
			"GET /v1/scenario\n"+
			"GET /v1/scenario/{name}\n"+
			"All /v1 routes accept ?date=YYYY-MM-DD (default: the headline date).\n")
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.store.Ready() {
			fmt.Fprintln(w, "ok")
			return
		}
		fmt.Fprintln(w, "warming") // still 200: serving, first build pending
	})
	// Fleet-internal replication protocol: peers (and the gateway's
	// coordinator relay) pull published snapshots as durable archives.
	mux.HandleFunc("GET /peer/version", s.peerVersion)
	mux.HandleFunc("GET /peer/snapshot", s.peerSnapshot)
	mux.HandleFunc("GET /v1/as/{asn}/conformance", s.route("as_conformance",
		func(ctx context.Context, snap *Snapshot, r *http.Request) (any, error) {
			return asConformance(snap, r.PathValue("asn"))
		}))
	mux.HandleFunc("GET /v1/prefix/{p...}", s.route("prefix",
		func(ctx context.Context, snap *Snapshot, r *http.Request) (any, error) {
			return prefixInfo(snap, r.PathValue("p"), r.URL.Query().Get("origin"))
		}))
	mux.HandleFunc("GET /v1/stats", s.route("stats",
		func(ctx context.Context, snap *Snapshot, r *http.Request) (any, error) {
			return snap.Stats, nil
		}))
	mux.HandleFunc("GET /v1/report", s.route("report_index",
		func(ctx context.Context, snap *Snapshot, r *http.Request) (any, error) {
			return &ReportIndex{
				AsOf:     snap.Date.Format("2006-01-02"),
				Snapshot: snap.Version,
				Sections: reportNames,
			}, nil
		}))
	mux.HandleFunc("GET /v1/report/{section}", s.route("report_section",
		func(ctx context.Context, snap *Snapshot, r *http.Request) (any, error) {
			return reportSection(ctx, snap, r.PathValue("section"))
		}))
	mux.HandleFunc("GET /v1/scenario", s.route("scenario_index",
		func(ctx context.Context, snap *Snapshot, r *http.Request) (any, error) {
			return scenarioIndex(snap), nil
		}))
	mux.HandleFunc("GET /v1/scenario/{name}", s.route("scenario",
		func(ctx context.Context, snap *Snapshot, r *http.Request) (any, error) {
			return scenarioRun(ctx, snap, r.PathValue("name"))
		}))
	// Unknown paths collapse into one bounded label set — a client
	// scanning arbitrary URLs mints route="other", never a fresh series
	// per URL. The full path still reaches the (sampled) access log.
	mux.HandleFunc("/", s.front.Route("other",
		func(ctx context.Context, w http.ResponseWriter, r *http.Request, rq *obsv.Request) {
			rq.Error(w, http.StatusNotFound, "unknown path")
		}))
	return mux
}

// route wraps a query function with the serving path behind the shared
// front: snapshot resolution, response cache, ETag revalidation, and
// JSON rendering.
func (s *Server) route(name string, q func(ctx context.Context, snap *Snapshot, r *http.Request) (any, error)) http.HandlerFunc {
	return s.front.Route(name, func(ctx context.Context, w http.ResponseWriter, r *http.Request, rq *obsv.Request) {
		date, err := s.resolveDate(r)
		if err != nil {
			rq.Error(w, http.StatusBadRequest, err.Error())
			return
		}

		// The cache key pins the snapshot version, so an entry outlives
		// its snapshot being dropped and rebuilt (same version, same
		// bytes) and a changed world invalidates everything at once.
		ver := s.store.Version(date)
		// Every /v1 answer names the snapshot version it came from, so
		// the gateway (and tests) can assert cross-replica version
		// coherence from headers alone, without parsing bodies.
		w.Header().Set("X-MANRS-Snapshot", ver)
		key := ver + "|" + r.URL.Path + "|" + r.URL.RawQuery
		if resp, ok := s.cacheGet(key); ok {
			s.met.cacheHits.Inc()
			rq.Set("cache", "hit")
			rq.Snapshot = ver
			rq.Code = s.writeCached(w, r, resp)
			return
		}
		s.met.cacheMisses.Inc()
		rq.Set("cache", "miss")

		snap, err := s.store.Get(ctx, date)
		if err != nil {
			var be *BackoffError
			if errors.As(err, &be) {
				// Tell clients exactly when a rebuild becomes possible.
				secs := int(time.Until(be.Until).Seconds()) + 1
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
			}
			s.logf("serve: %s %s: snapshot: %v", r.Method, r.URL.Path, err)
			rq.Error(w, errorCode(ctx, err), err.Error())
			return
		}
		rq.Snapshot = snap.Version
		val, err := q(ctx, snap, r)
		if err != nil {
			code := errorCode(ctx, err)
			if code >= http.StatusInternalServerError {
				s.logf("serve: %s %s: %v", r.Method, r.URL.Path, err)
			}
			rq.Error(w, code, err.Error())
			return
		}
		body, err := json.MarshalIndent(val, "", "  ")
		if err != nil {
			s.logf("serve: %s %s: encode: %v", r.Method, r.URL.Path, err)
			rq.Error(w, http.StatusInternalServerError, "response encoding failed")
			return
		}
		body = append(body, '\n')
		resp := cachedResponse{body: body, etag: etagFor(snap.Version, body)}
		s.cachePut(key, resp)
		rq.Code = s.writeCached(w, r, resp)
	})
}

// resolveDate parses ?date=YYYY-MM-DD, defaulting to the headline date.
// Every new date is a full snapshot build, so a date outside the
// world's study window, which no analysis asks about, is refused.
func (s *Server) resolveDate(r *http.Request) (time.Time, error) {
	if r.URL.RawQuery == "" { // most requests: nothing to parse
		return s.store.DefaultDate(), nil
	}
	q := r.URL.Query().Get("date")
	if q == "" {
		return s.store.DefaultDate(), nil
	}
	t, err := time.Parse("2006-01-02", q)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad date %q: want YYYY-MM-DD", q)
	}
	w := s.store.world
	if first, last := w.Date(w.Config.StartYear), w.Date(w.Config.EndYear); t.Before(first) || t.After(last) {
		return time.Time{}, fmt.Errorf("date %s outside the study window %s to %s",
			q, first.Format("2006-01-02"), last.Format("2006-01-02"))
	}
	return t, nil
}

// writeCached answers from a rendered response, handling ETag
// revalidation, and returns the status code sent.
func (s *Server) writeCached(w http.ResponseWriter, r *http.Request, resp cachedResponse) int {
	w.Header().Set("ETag", resp.etag)
	w.Header().Set("Cache-Control", "public, max-age=0, must-revalidate")
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, resp.etag) {
		s.met.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return http.StatusNotModified
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(resp.body)
	return http.StatusOK
}

// etagFor derives a strong validator from the snapshot version and the
// exact bytes — stable across background rebuilds of the same version.
func etagFor(version string, body []byte) string {
	h := fnv.New64a()
	h.Write([]byte(version))
	h.Write(body)
	return fmt.Sprintf(`"%016x"`, h.Sum64())
}

// etagMatch implements the If-None-Match list grammar (RFC 9110 §13.1.2).
func etagMatch(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

func (s *Server) cacheGet(key string) (cachedResponse, bool) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	resp, ok := s.cache[key]
	return resp, ok
}

func (s *Server) cachePut(key string, resp cachedResponse) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if _, ok := s.cache[key]; ok {
		return
	}
	if len(s.cacheOrder) >= cacheCap {
		delete(s.cache, s.cacheOrder[0])
		s.cacheOrder = s.cacheOrder[1:]
	}
	s.cache[key] = resp
	s.cacheOrder = append(s.cacheOrder, key)
}

// errorCode maps a handler error to its HTTP status.
func errorCode(ctx context.Context, err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.code
	}
	var be *BackoffError
	if errors.As(err, &be) {
		return http.StatusServiceUnavailable
	}
	if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Listen binds addr (":0" for an ephemeral port), starts serving in
// the background, and returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	return s.HTTPServer.Listen(addr, "serve: server", s.Handler(), s.opts.Logf)
}

// Serve starts answering queries from ln in the background. The
// listener may be wrapped (fault injection in chaos tests).
func (s *Server) Serve(ln net.Listener) error {
	return s.HTTPServer.Serve(ln, "serve: server", s.Handler(), s.opts.Logf)
}
