package obsv

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
)

// Health is the answer to an admin /healthz probe. Detail keys render
// sorted, one "key=value" line each, after the ok/degraded verdict.
type Health struct {
	OK     bool
	Detail map[string]string
}

// Admin is the opt-in observability endpoint the long-running commands
// serve behind their -admin flag (AdminFlag):
//
//	/metrics        Prometheus text exposition of Registry
//	/healthz        200 "ok" / 503 "degraded" from Healthz, plus detail
//	/debug/pprof/   the standard pprof handlers
//	/debug/vars     expvar JSON
//	/debug/trace    the Tracer's span tree, when a tracer is attached
//	/debug/latency  live p50/p90/p99/p999 of every registered summary
//
// Configure the exported fields before Listen; Addr and Shutdown come
// from the embedded lifecycle. The endpoint carries no authentication —
// bind it to loopback (or a trusted management network) only; see
// DESIGN.md "Observability".
type Admin struct {
	HTTPServer

	// Registry is the metrics source; nil means the Default registry.
	Registry *Registry
	// Healthz computes the health verdict; nil means always healthy.
	Healthz func() Health
	// Tracer, when non-nil, is rendered at /debug/trace.
	Tracer *Tracer
}

// registry resolves the effective metrics source.
func (a *Admin) registry() *Registry {
	if a.Registry != nil {
		return a.Registry
	}
	return Default()
}

// Handler returns the admin mux, so tests (and embedders) can drive it
// without a socket.
func (a *Admin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "manrsmeter admin endpoint\n/metrics\n/healthz\n/debug/pprof/\n/debug/vars\n/debug/trace\n/debug/latency\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = a.registry().WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := Health{OK: true}
		if a.Healthz != nil {
			h = a.Healthz()
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !h.OK {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "degraded")
		} else {
			fmt.Fprintln(w, "ok")
		}
		keys := make([]string, 0, len(h.Detail))
		for k := range h.Detail {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s=%s\n", k, h.Detail[k])
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if a.Tracer == nil {
			fmt.Fprintln(w, "no tracer attached")
			return
		}
		_ = a.Tracer.WriteTree(w)
	})
	mux.HandleFunc("/debug/latency", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = a.registry().WriteLatency(w)
	})
	// Runtime series (goroutines, heap, GC pause quantiles) come free
	// with every admin endpoint; they refresh at scrape time.
	EnableRuntimeMetrics(a.registry())
	return mux
}

// Listen binds addr (":0" for an ephemeral port), starts serving in
// the background, and returns the bound address. Serve errors go to
// stderr as error records of the "admin" component logger.
func (a *Admin) Listen(addr string) (net.Addr, error) {
	adminLog := NewLogger(os.Stderr, LevelInfo).With("admin")
	logf := func(format string, args ...any) { adminLog.Error(fmt.Sprintf(format, args...)) }
	return a.HTTPServer.Listen(addr, "obsv: admin endpoint", a.Handler(), logf)
}
