// gateway.go is the stateless consistent-hash gateway in front of the
// manrsd replica fleet. Request flow: the shared obsv.Front (trace
// correlation, admission, deadline, RED/access-log emission — the same
// front the replicas use; the trace context is forwarded to the
// replica, so one trace ID spans client → gateway → replica access
// logs), shard-key extraction (ASN or prefix from the /v1 path),
// rendezvous routing over the live member set, one retry of the
// idempotent GET on the next-ranked distinct replica after a connect
// failure or 503 (never after the deadline expired), and response
// relay preserving the replica's ETag/304 semantics — fingerprint-
// scoped ETags are identical across replicas serving the same world
// and date, which is what makes a stateless gateway coherent. A
// replica answering with an unexpected snapshot version for a date is
// counted (cluster_version_mismatch_total) and logged: that is the
// cross-replica coherence alarm, not a correctness patch, because
// byte-identical worlds cannot mismatch.

package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"manrsmeter/internal/obsv"
)

// Gateway defaults.
const (
	DefaultMaxInFlight    = 512
	DefaultRequestTimeout = 15 * time.Second
	// versionCacheCap bounds the per-date snapshot-version memory used
	// by the coherence check.
	versionCacheCap = 64
)

// GatewayOptions tunes a Gateway.
type GatewayOptions struct {
	// MaxInFlight bounds concurrently proxied requests; arrivals beyond
	// it are shed with 503 + Retry-After. ≤ 0 means DefaultMaxInFlight.
	MaxInFlight int
	// RequestTimeout bounds one proxied request end to end, both
	// attempts included; ≤ 0 means DefaultRequestTimeout.
	RequestTimeout time.Duration
	// Client overrides the upstream HTTP client (tests; fault
	// injection). Nil builds one sized to MaxInFlight.
	Client *http.Client
	// Registry receives the gateway metrics; nil means obsv.Default().
	Registry *obsv.Registry
	// Logf, when set, receives operational events (retries, mismatches).
	Logf func(format string, args ...any)
	// AccessLog, when non-nil, receives one key=value record per
	// sampled proxied request (trace ID, path, replica, status,
	// latency, retry flag). Errors always log.
	AccessLog *obsv.Logger
	// AccessLogSample head-samples the access log: 1-in-N requests are
	// logged. ≤ 0 means 1 (log everything).
	AccessLogSample int
}

// Gateway proxies /v1 queries across the replica fleet. Construct with
// NewGateway, serve with Listen or the Handler, stop with Shutdown.
type Gateway struct {
	obsv.HTTPServer
	ring    *Ring
	members *Membership
	opts    GatewayOptions
	client  *http.Client
	front   *obsv.Front

	// versions maps date key → first snapshot version seen, the
	// cross-replica coherence check: written once per date, then read.
	verMu    sync.RWMutex
	versions map[string]string
	verOrder []string

	met gatewayMetrics
}

type gatewayMetrics struct {
	reg       *obsv.Registry
	noReplica *obsv.Counter
	retries   *obsv.Counter
	mismatch  *obsv.Counter
	upstream  sync.Map // upstreamKey → func(wall time.Duration), the per-replica RED observer
}

type upstreamKey struct {
	replica string
	code    int
}

// NewGateway builds a gateway routing over members' ring.
func NewGateway(members *Membership, opts GatewayOptions) *Gateway {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = DefaultMaxInFlight
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	if opts.AccessLogSample <= 0 {
		opts.AccessLogSample = 1
	}
	reg := opts.Registry
	if reg == nil {
		reg = obsv.Default()
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        opts.MaxInFlight,
				MaxIdleConnsPerHost: opts.MaxInFlight,
			},
		}
	}
	return &Gateway{
		ring:     members.ring,
		members:  members,
		opts:     opts,
		client:   client,
		versions: make(map[string]string),
		front: obsv.NewFront(obsv.FrontOptions{
			Prefix:          "cluster_gateway",
			Msg:             "proxy",
			Extra:           []any{"replica", "", "retried", false},
			MaxInFlight:     opts.MaxInFlight,
			RequestTimeout:  opts.RequestTimeout,
			Registry:        reg,
			AccessLog:       opts.AccessLog,
			AccessLogSample: opts.AccessLogSample,
		}),
		met: gatewayMetrics{
			reg: reg,
			noReplica: reg.Counter("cluster_gateway_no_replica_total",
				"requests refused because no live replica was in the ring"),
			retries: reg.Counter("cluster_gateway_retries_total",
				"idempotent GETs retried on a distinct replica after connect failure or 503"),
			mismatch: reg.Counter("cluster_version_mismatch_total",
				"responses whose snapshot version disagreed with the fleet's published version for the date"),
		},
	}
}

// shardKey maps a /v1 path to its routing key: per-AS and per-prefix
// routes key on the ASN / prefix (so one entity's queries land on one
// replica's hot cache), everything else keys on the whole path.
func shardKey(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/")
	if !ok {
		return path
	}
	switch {
	case strings.HasPrefix(rest, "as/"):
		asn, _, _ := strings.Cut(strings.TrimPrefix(rest, "as/"), "/")
		return "as/" + asn
	case strings.HasPrefix(rest, "prefix/"):
		return "prefix/" + strings.TrimPrefix(rest, "prefix/")
	default:
		return "/v1/" + rest
	}
}

// Handler returns the gateway mux.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "manrs-gw — consistent-hash gateway over manrsd replicas\n"+
			"GET /v1/...             proxied to the owning replica\n"+
			"GET /healthz            gateway liveness (503 when no replica is live)\n"+
			"GET /cluster/ring       ring membership and health\n"+
			"GET /cluster/snapshot   relay a snapshot archive from a live replica\n")
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if len(g.members.Live()) == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "no live replicas")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /cluster/ring", g.ringState)
	relay := g.front.Route("snapshot", g.relaySnapshot)
	mux.HandleFunc("GET /cluster/snapshot", relay)
	// Alias: a replica pointed at the gateway with -peers uses the same
	// /peer/snapshot path it would use against a sibling replica.
	mux.HandleFunc("GET /peer/snapshot", relay)
	mux.HandleFunc("/v1/", g.front.Route("proxy", g.proxy))
	// Unknown paths collapse into one bounded label set, as on the
	// replicas; the full path still reaches the access log.
	mux.HandleFunc("/", g.front.Route("other",
		func(ctx context.Context, w http.ResponseWriter, r *http.Request, rq *obsv.Request) {
			rq.Error(w, http.StatusNotFound, "unknown path")
		}))
	return mux
}

// ringState renders ring membership as JSON — the operational view the
// smoke gate and chaos tests poll for convergence.
func (g *Gateway) ringState(w http.ResponseWriter, r *http.Request) {
	live := g.members.Live()
	var b strings.Builder
	b.WriteString("{\n  \"live\": ")
	b.WriteString(strconv.Itoa(len(live)))
	b.WriteString(",\n  \"replicas\": [\n")
	for i, rep := range g.members.Replicas() {
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, "    {\"replica\": %q, \"up\": %v}", rep, g.members.Up(rep))
	}
	b.WriteString("\n  ]\n}\n")
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}

// relaySnapshot is the coordinator endpoint of the replication
// protocol: it streams /peer/snapshot from the first live replica that
// answers, so a replica needs only the gateway address to catch up
// with the fleet (see serve.StoreOptions.Peers).
func (g *Gateway) relaySnapshot(ctx context.Context, w http.ResponseWriter, r *http.Request, rq *obsv.Request) {
	live := g.ring.Owners("peer/snapshot", g.ring.Len())
	if len(live) == 0 {
		g.noReplica(w, rq)
		return
	}
	var lastErr error
	for _, rep := range live {
		url := rep + "/peer/snapshot"
		if r.URL.RawQuery != "" {
			url += "?" + r.URL.RawQuery
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			lastErr = err
			continue
		}
		req.Header.Set("traceparent", rq.Trace.String())
		resp, err := g.client.Do(req)
		if err != nil {
			g.members.Observe(rep, false)
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			lastErr = fmt.Errorf("%s: status %d: %s", rep, resp.StatusCode, strings.TrimSpace(string(body)))
			continue
		}
		copyHeader(w.Header(), resp.Header, "Content-Type", "X-MANRS-Snapshot")
		w.Header().Set("X-MANRS-Replica", rep)
		w.WriteHeader(http.StatusOK)
		_, _ = io.Copy(w, resp.Body)
		resp.Body.Close()
		rq.Code, rq.Snapshot = http.StatusOK, resp.Header.Get("X-MANRS-Snapshot")
		rq.Set("replica", rep)
		return
	}
	rq.Outcome = "upstream_error"
	rq.Error(w, http.StatusBadGateway, fmt.Sprintf("no replica could serve the snapshot: %v", lastErr))
}

// noReplica refuses a request that found the ring empty.
func (g *Gateway) noReplica(w http.ResponseWriter, rq *obsv.Request) {
	g.met.noReplica.Inc()
	rq.Outcome = "no_replica"
	w.Header().Set("Retry-After", "1")
	rq.Error(w, http.StatusServiceUnavailable, "no live replicas")
}

// relayedHeaders are the response headers the gateway preserves from
// the replica — the ETag/304 contract, the snapshot-version and
// backpressure signals, and the body length (so nothing is re-chunked).
var relayedHeaders = []string{
	"Content-Type", "Content-Length", "ETag", "Cache-Control", "Retry-After", "X-MANRS-Snapshot",
}

var copyBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }} // proxy's body copy buffers

func copyHeader(dst, src http.Header, keys ...string) {
	for _, k := range keys {
		if v := src.Get(k); v != "" {
			dst.Set(k, v)
		}
	}
}

// proxy is the /v1 forwarding path.
func (g *Gateway) proxy(ctx context.Context, w http.ResponseWriter, r *http.Request, rq *obsv.Request) {
	start := time.Now()
	// Only idempotent reads are proxied: the replicas expose a
	// read-only query surface, and the retry policy below is only safe
	// for requests with no side effects.
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		rq.Error(w, http.StatusMethodNotAllowed, "only GET is proxied")
		return
	}

	owners := g.ring.Owners(shardKey(r.URL.Path), 2)
	if len(owners) == 0 {
		g.noReplica(w, rq)
		return
	}

	resp, replica, err := g.forward(ctx, r, rq.Trace, owners[0])
	if retryable(resp, err) && len(owners) > 1 && ctx.Err() == nil {
		// One retry, on a distinct replica: a connect failure or a 503
		// from the primary says nothing about its sibling. Never more
		// than one hop — a saturated fleet must see shed 503s, not a
		// retry storm; and never after the deadline expired.
		if resp != nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		g.met.retries.Inc()
		rq.Set("retried", true)
		g.logf("cluster: retrying %s on %s after %s", r.URL.Path, owners[1], describeFailure(resp, err))
		resp, replica, err = g.forward(ctx, r, rq.Trace, owners[1])
	}
	rq.Set("replica", replica)
	if err != nil {
		code := http.StatusBadGateway
		rq.Outcome = "upstream_error"
		if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) {
			code, rq.Outcome = http.StatusGatewayTimeout, "timeout"
		}
		g.observeUpstream(replica, code, time.Since(start))
		rq.Error(w, code, fmt.Sprintf("replica %s: %v", replica, err))
		return
	}
	defer resp.Body.Close()

	g.checkVersion(r, resp, replica)

	copyHeader(w.Header(), resp.Header, relayedHeaders...)
	w.Header().Set("X-MANRS-Replica", replica)
	w.WriteHeader(resp.StatusCode)
	// Via w's buffered writer, one write: w's own ReadFrom flushes at 512 B.
	buf := copyBufs.Get().(*[32 << 10]byte)
	_, _ = io.CopyBuffer(struct{ io.Writer }{w}, resp.Body, buf[:])
	copyBufs.Put(buf)
	rq.Code, rq.Snapshot = resp.StatusCode, resp.Header.Get("X-MANRS-Snapshot")
	g.observeUpstream(replica, resp.StatusCode, time.Since(start))
}

// forward issues one upstream attempt to replica, propagating the
// trace context and the client's conditional headers.
func (g *Gateway) forward(ctx context.Context, r *http.Request, tc obsv.TraceContext, replica string) (*http.Response, string, error) {
	url := replica + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, url, nil)
	if err != nil {
		return nil, replica, err
	}
	req.Header.Set("traceparent", tc.String())
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		// Passive health feedback: a connect failure is evidence the
		// prober should not have to rediscover on its own schedule.
		// Deadline expiry is the client's budget, not the replica's
		// health, and must not demote anyone.
		if ctx.Err() == nil {
			g.members.Observe(replica, false)
		}
		return nil, replica, err
	}
	return resp, replica, nil
}

// retryable reports whether the attempt may be retried on a distinct
// replica: transport failure (no response) or a 503 — the replica shed
// or is draining; its Retry-After applies to *it*, while a different
// replica can answer now.
func retryable(resp *http.Response, err error) bool {
	if err != nil {
		return true
	}
	return resp != nil && resp.StatusCode == http.StatusServiceUnavailable
}

func describeFailure(resp *http.Response, err error) string {
	if err != nil {
		return fmt.Sprintf("connect failure (%v)", err)
	}
	return fmt.Sprintf("status %d", resp.StatusCode)
}

// checkVersion is the cross-replica coherence alarm: for every date
// key, the first snapshot version seen is pinned, and any replica
// answering the same date with a different version is counted and
// logged. With fingerprint-scoped versions this fires only when the
// fleet serves divergent worlds — a deployment error, not a race.
func (g *Gateway) checkVersion(r *http.Request, resp *http.Response, replica string) {
	ver := resp.Header.Get("X-MANRS-Snapshot")
	if ver == "" {
		return
	}
	// The version is "<fingerprint>@<date>"; the date key is explicit
	// in the version itself, so one map pin per served date suffices.
	_, date, ok := strings.Cut(ver, "@")
	if !ok {
		return
	}
	g.verMu.RLock()
	pinned, ok := g.versions[date]
	g.verMu.RUnlock()
	if ok && pinned == ver {
		return // the steady state: a read
	}
	g.verMu.Lock()
	defer g.verMu.Unlock()
	if pinned, ok := g.versions[date]; ok {
		if pinned != ver {
			g.met.mismatch.Inc()
			g.logf("cluster: version mismatch: replica %s served %s for date %s, fleet pinned %s (path %s)",
				replica, ver, date, pinned, r.URL.Path)
		}
		return
	}
	if len(g.verOrder) >= versionCacheCap {
		delete(g.versions, g.verOrder[0])
		g.verOrder = g.verOrder[1:]
	}
	g.versions[date] = ver
	g.verOrder = append(g.verOrder, date)
}

// observeUpstream records the per-replica RED metrics.
func (g *Gateway) observeUpstream(replica string, code int, wall time.Duration) {
	if replica == "" {
		replica = "none"
	}
	key := upstreamKey{replica, code}
	observe, ok := g.met.upstream.Load(key)
	if !ok { // resolve the instruments once per key, not per request
		requests := g.met.reg.Counter("cluster_proxy_requests_total",
			"proxied requests by replica and status",
			"replica", replica, "code", strconv.Itoa(code))
		seconds := g.met.reg.Summary("cluster_proxy_seconds",
			"proxied request latency quantiles by replica",
			"replica", replica)
		observe, _ = g.met.upstream.LoadOrStore(key, func(wall time.Duration) {
			requests.Inc()
			seconds.Observe(wall.Seconds())
		})
	}
	observe.(func(time.Duration))(wall)
}

func (g *Gateway) logf(format string, args ...any) {
	if g.opts.Logf != nil {
		g.opts.Logf(format, args...)
	}
}

// Listen binds addr (":0" for an ephemeral port), starts serving in
// the background, and returns the bound address.
func (g *Gateway) Listen(addr string) (net.Addr, error) {
	return g.HTTPServer.Listen(addr, "cluster: gateway", g.Handler(), g.opts.Logf)
}
