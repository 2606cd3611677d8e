// front_contract_test.go is the one request-front contract, driven
// through both front ends: serve.Server.Handler() and
// cluster.Gateway.Handler() wrap different work (cache and handlers vs
// ring and forward) behind the same obsv.Front, so one table of cases
// runs against both and both must pass the same assertions — trace
// echo, shed + Retry-After growth, deadline → 504, bounded
// route="other", JSON error envelopes, head sampling, and RED counter
// == access-log status == span status on every exit.

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"manrsmeter/internal/cluster"
	"manrsmeter/internal/obsv"
)

// frontConfig is what a contract case asks of the front end under test.
type frontConfig struct {
	maxInFlight int
	timeout     time.Duration
	sample      int  // access-log head sample; 0 means 1 (log everything)
	stall       bool // the backend never answers until the request gives up
}

// frontEnd is one front end under contract: its handler, its private
// telemetry sinks, and how its series and records are named.
type frontEnd struct {
	name   string
	prefix string // metric family prefix
	msg    string // access-log msg
	route  string // route label of /v1/stats
	extras []string
	h      http.Handler
	reg    *obsv.Registry
	log    *logBuffer
	tracer *obsv.Tracer // nil: the gateway attaches none

	// gate parks backend work: while armed, an admitted /v1/stats
	// request blocks inside the handler, holding its admission slot.
	mu    sync.Mutex
	gate  chan struct{}
	holds int
}

func (fe *frontEnd) wait(ctx context.Context) error {
	fe.mu.Lock()
	gate := fe.gate
	fe.mu.Unlock()
	if gate == nil {
		return nil
	}
	select {
	case <-gate:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// hold parks one request inside the handler and returns once it owns
// an admission slot; release lets it finish and returns its status.
func (fe *frontEnd) hold(t *testing.T) (release func() int) {
	t.Helper()
	gate := make(chan struct{})
	fe.mu.Lock()
	fe.gate = gate
	fe.holds++
	// A fresh date per hold: the replica blocks in a snapshot build,
	// and a date already published would answer from the store.
	path := fmt.Sprintf("/v1/stats?date=2020-01-%02d", fe.holds)
	fe.mu.Unlock()
	done := make(chan int, 1)
	go func() { done <- get(fe.h, path, nil).Code }()
	deadline := time.Now().Add(10 * time.Second)
	for fe.reg.Value(fe.prefix+"_inflight_requests") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("held request never occupied an admission slot")
		}
		time.Sleep(time.Millisecond)
	}
	return func() int {
		fe.mu.Lock()
		fe.gate = nil
		fe.mu.Unlock()
		close(gate)
		return <-done
	}
}

func newServeFront(t *testing.T, cfg frontConfig) *frontEnd {
	fe := &frontEnd{name: "replica", prefix: "serve", msg: "request", route: "stats",
		extras: []string{"cache=miss"},
		reg:    obsv.NewRegistry(), log: &logBuffer{}, tracer: obsv.NewTracer()}
	store := NewStore(testWorld(t), StoreOptions{Registry: fe.reg, BuildTimeout: time.Second})
	store.buildFn = func(ctx context.Context, date time.Time) (*Snapshot, error) {
		if err := fe.wait(ctx); err != nil {
			return nil, err
		}
		return &Snapshot{Version: "test@front", Date: date, Stats: &EcosystemStats{}}, nil
	}
	fe.h = NewServer(store, Options{
		MaxInFlight: cfg.maxInFlight, RequestTimeout: cfg.timeout, Registry: fe.reg, Tracer: fe.tracer,
		AccessLog: obsv.NewLogger(fe.log, obsv.LevelInfo).With("access"), AccessLogSample: max(cfg.sample, 1),
	}).Handler()
	return fe
}

func newGatewayFront(t *testing.T, cfg frontConfig) *frontEnd {
	fe := &frontEnd{name: "gateway", prefix: "cluster_gateway", msg: "proxy", route: "proxy",
		extras: []string{"replica=http://", "retried=false"},
		reg:    obsv.NewRegistry(), log: &logBuffer{}}
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fe.wait(r.Context()) != nil {
			return
		}
		w.Header().Set("X-MANRS-Snapshot", "test@front")
		fmt.Fprintln(w, "{}")
	}))
	t.Cleanup(replica.Close)
	members := cluster.NewMembership(cluster.NewRing(1, replica.URL), []string{replica.URL}, cluster.MembershipOptions{
		Registry: fe.reg,
		Probe:    func(context.Context, string) error { return nil },
	})
	fe.h = cluster.NewGateway(members, cluster.GatewayOptions{
		MaxInFlight: cfg.maxInFlight, RequestTimeout: cfg.timeout, Registry: fe.reg,
		AccessLog: obsv.NewLogger(fe.log, obsv.LevelInfo).With("access"), AccessLogSample: cfg.sample,
	}).Handler()
	return fe
}

// do issues one GET and checks what every response owes the client: a
// valid echoed traceparent, and on errors the JSON envelope.
func (fe *frontEnd) do(t *testing.T, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	rec := get(fe.h, path, hdr)
	if tc, ok := obsv.ParseTraceParent(rec.Header().Get("Traceparent")); !ok || !tc.Valid() {
		t.Errorf("GET %s: response traceparent %q is not valid", path, rec.Header().Get("Traceparent"))
	}
	if rec.Code >= 400 {
		var env struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == "" || env.Status != rec.Code {
			t.Errorf("GET %s: malformed error envelope %q (%v)", path, rec.Body.String(), err)
		}
	}
	return rec
}

// logged returns the access records carrying every fragment.
func (fe *frontEnd) logged(fragments ...string) []string {
	var out []string
lines:
	for _, line := range strings.Split(fe.log.String(), "\n") {
		for _, f := range fragments {
			if !strings.Contains(line, f) {
				continue lines
			}
		}
		out = append(out, line)
	}
	return out
}

// agree is the single-exit invariant: the RED counter, the duration
// summary, the access log and (where a tracer is attached) the span
// tree all report n requests on route with status code. Cases run on a
// fresh front end, so totals are deltas.
func (fe *frontEnd) agree(t *testing.T, route string, code, n int) {
	t.Helper()
	status := strconv.Itoa(code)
	if got := fe.reg.Value(fe.prefix+"_requests_total", "route", route, "code", status); got != int64(n) {
		t.Errorf(`%s_requests_total{route=%q,code=%q} = %d, want %d`, fe.prefix, route, status, got, n)
	}
	if got := fe.reg.Value(fe.prefix+"_request_duration_seconds", "route", route); got < int64(n) {
		t.Errorf(`%s_request_duration_seconds{route=%q} count = %d, want ≥ %d`, fe.prefix, route, got, n)
	}
	if got := len(fe.logged("msg="+fe.msg, "route="+route+" ", "status="+status)); got != n {
		t.Errorf("access log has %d route=%s status=%s records, want %d:\n%s", got, route, status, n, fe.log.String())
	}
	if fe.tracer == nil {
		return
	}
	spans := 0
	for _, ev := range fe.tracer.Events() {
		if ev.Name == fe.prefix+".query" && ev.Attr("route") == route && ev.Attr("status") == status {
			spans++
		}
	}
	if spans != n {
		t.Errorf("span tree has %d route=%s status=%s spans, want %d", spans, route, status, n)
	}
}

var frontContract = []struct {
	name  string
	cfg   frontConfig
	check func(t *testing.T, fe *frontEnd)
}{
	{"traceparent honored, minted, or replaced", frontConfig{}, func(t *testing.T, fe *frontEnd) {
		const parent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
		const traceID = "0af7651916cd43dd8448eb211c80319c"
		rec := fe.do(t, "/v1/stats", map[string]string{"traceparent": parent})
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d, want 200: %s", rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("Traceparent"); !strings.Contains(got, traceID) {
			t.Errorf("response traceparent = %q, want trace ID %s", got, traceID)
		}
		// The same ID reaches the access record, beside every common key
		// and the front end's own extras.
		want := append([]string{"component=access", "trace=" + traceID, "path=/v1/stats", "dur_us=",
			"snapshot=test@front", "outcome=ok"}, fe.extras...)
		if len(fe.logged(want...)) != 1 {
			t.Errorf("no access record carries %v:\n%s", want, fe.log.String())
		}
		if fe.tracer != nil {
			found := false
			for _, ev := range fe.tracer.Events() {
				found = found || ev.Attr("trace") == traceID
			}
			if !found {
				t.Errorf("no span carries trace=%s", traceID)
			}
		}

		minted := fe.do(t, "/v1/stats", nil).Header().Get("Traceparent")
		if strings.Contains(minted, traceID) {
			t.Error("minted traceparent reused the client trace ID")
		}
		const malformed = "00-zzzz-yyy-01"
		if got := fe.do(t, "/v1/stats", map[string]string{"traceparent": malformed}).Header().Get("Traceparent"); got == malformed {
			t.Error("malformed traceparent echoed back verbatim")
		}
		fe.agree(t, fe.route, http.StatusOK, 3)
	}},

	{"shed with Retry-After that grows over a streak", frontConfig{maxInFlight: 1, sample: 8}, func(t *testing.T, fe *frontEnd) {
		release := fe.hold(t)
		for i, want := range []int{1, 2, 3} {
			rec := fe.do(t, "/v1/stats", nil)
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("shed %d: got %d, want 503", i, rec.Code)
			}
			if got, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || got != want {
				t.Errorf("shed %d: Retry-After %q, want %d", i, rec.Header().Get("Retry-After"), want)
			}
		}
		if got := fe.reg.Value(fe.prefix + "_shed_total"); got != 3 {
			t.Errorf("%s_shed_total = %d, want 3", fe.prefix, got)
		}
		// Sheds are 5xx: all three are written despite the 1-in-8 sample.
		if got := len(fe.logged("outcome=shed")); got != 3 {
			t.Errorf("logged %d of 3 sheds, want all (5xx bypass sampling)", got)
		}
		fe.agree(t, fe.route, http.StatusServiceUnavailable, 3)
		if code := release(); code != http.StatusOK {
			t.Fatalf("held request finished %d, want 200", code)
		}

		// A successful admission resets the streak.
		release = fe.hold(t)
		if got := fe.do(t, "/v1/stats", nil).Header().Get("Retry-After"); got != "1" {
			t.Errorf("Retry-After after a successful admission = %q, want 1", got)
		}
		release()
	}},

	{"deadline answers 504", frontConfig{timeout: 30 * time.Millisecond, stall: true}, func(t *testing.T, fe *frontEnd) {
		if rec := fe.do(t, "/v1/stats", nil); rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("got %d, want 504: %s", rec.Code, rec.Body.String())
		}
		if len(fe.logged("status=504", "outcome=timeout")) != 1 {
			t.Errorf("no outcome=timeout record:\n%s", fe.log.String())
		}
		fe.agree(t, fe.route, http.StatusGatewayTimeout, 1)
	}},

	{"unknown paths collapse into route=other", frontConfig{}, func(t *testing.T, fe *frontEnd) {
		paths := []string{"/nope", "/v2/stats", "/etc/passwd", "/v1x", "/favicon.ico"}
		for _, p := range paths {
			if rec := fe.do(t, p, nil); rec.Code != http.StatusNotFound {
				t.Errorf("GET %s = %d, want 404", p, rec.Code)
			}
		}
		fe.agree(t, "other", http.StatusNotFound, len(paths))
		var dump strings.Builder
		if err := fe.reg.WritePrometheus(&dump); err != nil {
			t.Fatal(err)
		}
		for _, leak := range []string{"nope", "favicon"} {
			if strings.Contains(dump.String(), leak) {
				t.Errorf("per-URL label leaked into metrics: %q in\n%s", leak, dump.String())
			}
		}
		// The access log, by contrast, keeps the real path for debugging.
		if len(fe.logged("path=/favicon.ico")) != 1 {
			t.Errorf("access log lost the 404 path:\n%s", fe.log.String())
		}
	}},

	{"access log is head-sampled 1-in-N", frontConfig{sample: 8}, func(t *testing.T, fe *frontEnd) {
		for i := 0; i < 32; i++ {
			fe.do(t, "/v1/stats", nil)
		}
		if got := len(fe.logged("msg=" + fe.msg)); got != 4 {
			t.Fatalf("logged %d of 32 at sample 8, want 4", got)
		}
		if got := fe.reg.Value(fe.prefix + "_access_log_written_total"); got != 4 {
			t.Errorf("written counter = %d, want 4", got)
		}
		if got := fe.reg.Value(fe.prefix + "_access_log_suppressed_total"); got != 28 {
			t.Errorf("suppressed counter = %d, want 28", got)
		}
		// 4xx are client errors: sampled like successes, never privileged.
		for i := 0; i < 16; i++ {
			fe.do(t, "/nope", nil)
		}
		if got := len(fe.logged("status=404")); got != 2 {
			t.Errorf("logged %d of 16 404s at sample 8, want 2", got)
		}
	}},
}

// TestFrontContract runs every contract case against both front ends,
// so the cases read each front family under both prefixes:
// serve_requests_total and cluster_gateway_requests_total,
// serve_request_duration_seconds and
// cluster_gateway_request_duration_seconds, serve_inflight_requests and
// cluster_gateway_inflight_requests (a held admission slot),
// serve_shed_total and cluster_gateway_shed_total, and the head
// sample's serve_access_log_written_total,
// serve_access_log_suppressed_total,
// cluster_gateway_access_log_written_total and
// cluster_gateway_access_log_suppressed_total.
func TestFrontContract(t *testing.T) {
	for _, c := range frontContract {
		for _, mk := range []func(*testing.T, frontConfig) *frontEnd{newServeFront, newGatewayFront} {
			fe := mk(t, c.cfg)
			t.Run(c.name+"/"+fe.name, func(t *testing.T) {
				if c.cfg.stall {
					gate := make(chan struct{})
					fe.gate = gate
					defer close(gate)
				}
				c.check(t, fe)
			})
		}
	}
}
