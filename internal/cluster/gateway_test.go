package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"manrsmeter/internal/obsv"
)

// stubReplica fakes a manrsd replica: /healthz and a /v1 surface
// answering 200 + fingerprint-scoped ETag (or a forced status),
// recording every request's path and traceparent.
type stubReplica struct {
	version string
	status  int           // forced /v1 status; 0 means 200
	block   chan struct{} // when non-nil, /v1 handlers wait on it

	mu     sync.Mutex
	paths  []string
	traces []string

	ts *httptest.Server
}

func newStubReplica(t *testing.T, version string) *stubReplica {
	t.Helper()
	s := &stubReplica{version: version}
	s.ts = httptest.NewServer(http.HandlerFunc(s.handle))
	t.Cleanup(s.ts.Close)
	return s
}

func (s *stubReplica) url() string { return s.ts.URL }

func (s *stubReplica) handle(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		fmt.Fprintln(w, "ok")
		return
	}
	s.mu.Lock()
	s.paths = append(s.paths, r.URL.Path)
	if tc, ok := obsv.ParseTraceParent(r.Header.Get("traceparent")); ok {
		s.traces = append(s.traces, tc.TraceIDString())
	}
	block := s.block
	s.mu.Unlock()
	if block != nil {
		<-block
	}
	if s.status != 0 {
		if s.status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "7")
		}
		http.Error(w, "stub failure", s.status)
		return
	}
	w.Header().Set("X-MANRS-Snapshot", s.version)
	etag := fmt.Sprintf("%q", s.version)
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\"from\": %q}\n", s.version)
}

func (s *stubReplica) seen() (paths, traces []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.paths...), append([]string(nil), s.traces...)
}

// newTestGateway wires a gateway over the replica URLs with a private
// registry and a no-op prober (health transitions in these tests come
// from explicit Observe calls or passive forwarding feedback).
func newTestGateway(t *testing.T, replicas []string, opts GatewayOptions) (*Gateway, *Membership, *obsv.Registry) {
	t.Helper()
	reg := obsv.NewRegistry()
	ring := NewRing(1, replicas...)
	members := NewMembership(ring, replicas, MembershipOptions{
		Registry: reg,
		Probe:    func(ctx context.Context, replica string) error { return nil },
	})
	opts.Registry = reg
	return NewGateway(members, opts), members, reg
}

// primaryFor finds an ASN path whose rendezvous primary is the given
// replica (and, with a fallback wanted, whose second choice exists).
func primaryFor(t *testing.T, ring *Ring, replica string) string {
	t.Helper()
	for asn := 100; asn < 5000; asn++ {
		key := fmt.Sprintf("as/%d", asn)
		if owners := ring.Owners(key, 2); len(owners) > 0 && owners[0] == replica {
			return fmt.Sprintf("/v1/as/%d/conformance", asn)
		}
	}
	t.Fatal("no key found with the wanted primary")
	return ""
}

func gwGet(gw *Gateway, path string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, req)
	return rec
}

// TestGatewayStickyRouting checks the point of the ring: one entity's
// queries always land on the same replica, and it is the one the ring
// names.
func TestGatewayStickyRouting(t *testing.T) {
	a, b, c := newStubReplica(t, "v@2026-08-07"), newStubReplica(t, "v@2026-08-07"), newStubReplica(t, "v@2026-08-07")
	gw, _, _ := newTestGateway(t, []string{a.url(), b.url(), c.url()}, GatewayOptions{})

	for asn := 100; asn < 130; asn++ {
		path := fmt.Sprintf("/v1/as/%d/conformance", asn)
		owner := gw.ring.Owner(fmt.Sprintf("as/%d", asn))
		for i := 0; i < 3; i++ {
			rec := gwGet(gw, path, nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: %d", path, rec.Code)
			}
			if got := rec.Header().Get("X-MANRS-Replica"); got != owner {
				t.Fatalf("GET %s served by %s, ring owner is %s", path, got, owner)
			}
		}
	}
	// All three replicas should have seen some share of 30 ASNs.
	for i, s := range []*stubReplica{a, b, c} {
		if paths, _ := s.seen(); len(paths) == 0 {
			t.Errorf("replica %d saw no requests over 30 ASNs", i)
		}
	}
}

// TestGatewayOnlyIdempotent: the proxy forwards only GET/HEAD; anything
// else is refused at the gateway, never forwarded.
func TestGatewayOnlyIdempotent(t *testing.T) {
	a := newStubReplica(t, "v@2026-08-07")
	gw, _, reg := newTestGateway(t, []string{a.url()}, GatewayOptions{})

	req := httptest.NewRequest(http.MethodPost, "/v1/stats", strings.NewReader("{}"))
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats = %d, want 405", rec.Code)
	}
	if reg.Value("cluster_gateway_requests_total", "route", "proxy", "code", "405") != 1 || rec.Header().Get("Traceparent") == "" {
		t.Error("405 refusal left no RED count or echoed no traceparent")
	}
	if paths, _ := a.seen(); len(paths) != 0 {
		t.Errorf("POST reached the replica: %v", paths)
	}
}

// TestGatewayRetryConnectFailure: the primary's listener is dead; the
// GET is retried once on the distinct second-ranked replica and
// succeeds, and the failure feeds the membership hysteresis.
func TestGatewayRetryConnectFailure(t *testing.T) {
	alive := newStubReplica(t, "v@2026-08-07")
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connect refused from here on

	gw, members, reg := newTestGateway(t, []string{alive.url(), deadURL}, GatewayOptions{})
	path := primaryFor(t, gw.ring, deadURL)

	rec := gwGet(gw, path, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200 via retry", path, rec.Code)
	}
	if got := rec.Header().Get("X-MANRS-Replica"); got != alive.url() {
		t.Errorf("answered by %s, want the live replica", got)
	}
	if reg.Value("cluster_gateway_retries_total") != 1 {
		t.Errorf("retries = %d, want 1", reg.Value("cluster_gateway_retries_total"))
	}
	if reg.Value("cluster_probe_failures_total") == 0 {
		t.Error("connect failure not fed back to membership")
	}
	// A second failing request reaches the hysteresis of 2: the dead
	// replica leaves the ring and subsequent requests route straight to
	// the survivor with no retry.
	gwGet(gw, path, nil)
	if members.Up(deadURL) {
		t.Error("dead replica still in ring after two passive failures")
	}
	before := reg.Value("cluster_gateway_retries_total")
	rec = gwGet(gw, path, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-demotion GET = %d", rec.Code)
	}
	if reg.Value("cluster_gateway_retries_total") != before {
		t.Error("request retried even though the ring had already routed around the dead replica")
	}
}

// TestGatewayRetryOn503: a 503 from the primary (its shed, its
// Retry-After) is retried once on the sibling, which answers now.
func TestGatewayRetryOn503(t *testing.T) {
	shedding := newStubReplica(t, "v@2026-08-07")
	shedding.status = http.StatusServiceUnavailable
	healthy := newStubReplica(t, "v@2026-08-07")

	gw, _, reg := newTestGateway(t, []string{shedding.url(), healthy.url()}, GatewayOptions{})
	path := primaryFor(t, gw.ring, shedding.url())

	rec := gwGet(gw, path, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200 from the sibling", path, rec.Code)
	}
	if reg.Value("cluster_gateway_retries_total") != 1 {
		t.Errorf("retries = %d, want 1", reg.Value("cluster_gateway_retries_total"))
	}
}

// TestGatewayBoth503: when the whole surviving set sheds, the final 503
// is relayed with the replica's Retry-After intact — the client's
// signal to back off.
func TestGatewayBoth503(t *testing.T) {
	a := newStubReplica(t, "v@2026-08-07")
	a.status = http.StatusServiceUnavailable
	b := newStubReplica(t, "v@2026-08-07")
	b.status = http.StatusServiceUnavailable

	gw, _, _ := newTestGateway(t, []string{a.url(), b.url()}, GatewayOptions{})
	rec := gwGet(gw, "/v1/stats", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("GET = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "7" {
		t.Errorf("Retry-After %q not relayed from the replica", rec.Header().Get("Retry-After"))
	}
}

// TestGatewayNoLiveReplicas: an empty ring refuses fast with 503, and
// /healthz reports the gateway itself unhealthy.
func TestGatewayNoLiveReplicas(t *testing.T) {
	a := newStubReplica(t, "v@2026-08-07")
	gw, members, reg := newTestGateway(t, []string{a.url()}, GatewayOptions{})
	members.Observe(a.url(), false)
	members.Observe(a.url(), false) // hysteresis = 2

	rec := gwGet(gw, "/v1/stats", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("GET with empty ring = %d, want 503", rec.Code)
	}
	if reg.Value("cluster_gateway_no_replica_total") != 1 {
		t.Errorf("no_replica counter = %d, want 1", reg.Value("cluster_gateway_no_replica_total"))
	}
	if reg.Value("cluster_gateway_requests_total", "route", "proxy", "code", "503") != 1 || rec.Header().Get("Traceparent") == "" {
		t.Error("no-replica refusal left no RED count or echoed no traceparent")
	}
	if rec := gwGet(gw, "/healthz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/healthz = %d, want 503 with no live replicas", rec.Code)
	}
	if paths, _ := a.seen(); len(paths) != 0 {
		t.Errorf("demoted replica still received traffic: %v", paths)
	}
}

// TestGatewayTraceparent: a client trace ID is propagated to the
// replica (echo and minting are the shared front's contract, pinned
// for both front ends by serve.TestFrontContract).
func TestGatewayTraceparent(t *testing.T) {
	a := newStubReplica(t, "v@2026-08-07")
	gw, _, _ := newTestGateway(t, []string{a.url()}, GatewayOptions{})

	const tp = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	rec := gwGet(gw, "/v1/stats", map[string]string{"traceparent": tp})
	if rec.Code != http.StatusOK {
		t.Fatalf("GET = %d", rec.Code)
	}
	_, traces := a.seen()
	if len(traces) != 1 || traces[0] != "0123456789abcdef0123456789abcdef" {
		t.Errorf("replica saw traces %v, want the client's", traces)
	}
}

// TestGatewayVersionMismatch: two replicas serving different snapshot
// versions for the same date trip the coherence alarm.
func TestGatewayVersionMismatch(t *testing.T) {
	a := newStubReplica(t, "aaaa@2026-08-07")
	b := newStubReplica(t, "bbbb@2026-08-07")
	gw, _, reg := newTestGateway(t, []string{a.url(), b.url()}, GatewayOptions{})

	// Drive one path owned by each replica so both versions are seen.
	gwGet(gw, primaryFor(t, gw.ring, a.url()), nil)
	gwGet(gw, primaryFor(t, gw.ring, b.url()), nil)
	if reg.Value("cluster_version_mismatch_total") == 0 {
		t.Error("divergent snapshot versions raised no mismatch")
	}

	// A homogeneous fleet must never trip it.
	c := newStubReplica(t, "cccc@2026-08-07")
	d := newStubReplica(t, "cccc@2026-08-07")
	gw2, _, reg2 := newTestGateway(t, []string{c.url(), d.url()}, GatewayOptions{})
	gwGet(gw2, primaryFor(t, gw2.ring, c.url()), nil)
	gwGet(gw2, primaryFor(t, gw2.ring, d.url()), nil)
	if n := reg2.Value("cluster_version_mismatch_total"); n != 0 {
		t.Errorf("identical versions raised %d mismatches", n)
	}
}

// TestGatewayRelaySnapshot: snapshots replicate replica to replica
// only, so the gateway serves no archive — /cluster/snapshot and
// /peer/snapshot are unknown paths (404 under route="other"), and
// nothing reaches a replica. A replica whose -peers names the gateway
// falls through to its next source.
func TestGatewayRelaySnapshot(t *testing.T) {
	a := newStubReplica(t, "v@2026-08-07")
	gw, _, reg := newTestGateway(t, []string{a.url()}, GatewayOptions{})

	for _, path := range []string{"/cluster/snapshot", "/peer/snapshot"} {
		if rec := gwGet(gw, path+"?date=2026-08-07", nil); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, rec.Code)
		}
	}
	if got := reg.Value("cluster_gateway_requests_total", "route", "other", "code", "404"); got != 2 {
		t.Errorf(`404s counted under route="other" = %d, want 2`, got)
	}
	if paths, _ := a.seen(); len(paths) != 0 {
		t.Errorf("snapshot requests reached the replica: %v", paths)
	}
}

// TestGatewayRingState: /cluster/ring is JSON whatever the replica
// names hold, and its live count and up flags follow a demotion.
func TestGatewayRingState(t *testing.T) {
	replicas := []string{"http://a.example", "http://b\x7f\x01.example"}
	gw, members, _ := newTestGateway(t, replicas, GatewayOptions{})
	members.Observe(replicas[0], false)
	members.Observe(replicas[0], false) // hysteresis = 2

	rec := gwGet(gw, "/cluster/ring", nil)
	var state struct {
		Live     int           `json:"live"`
		Replicas []ringReplica `json:"replicas"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &state); err != nil {
		t.Fatalf("/cluster/ring is not JSON: %v\n%q", err, rec.Body.String())
	}
	if state.Live != 1 || len(state.Replicas) != 2 {
		t.Fatalf("ring state %+v, want 1 live of 2 replicas", state)
	}
	for i, want := range []bool{false, true} {
		if got := state.Replicas[i]; got.Replica != replicas[i] || got.Up != want {
			t.Errorf("replica %d = %+v, want %q up=%v", i, got, replicas[i], want)
		}
	}
	if !strings.Contains(rec.Body.String(), `"live": 1`) {
		t.Errorf("live count not rendered as the smoke gate greps it:\n%s", rec.Body)
	}
}

// failingTransport fails every upstream attempt with a fixed error.
type failingTransport struct{ err error }

func (f failingTransport) RoundTrip(*http.Request) (*http.Response, error) { return nil, f.err }

// TestGatewayErrorEnvelopeIsJSON: an upstream error string carrying
// control bytes and invalid UTF-8 must still reach the client as a
// parseable JSON envelope (fmt %q would emit \x00 / \xff, which JSON
// forbids).
func TestGatewayErrorEnvelopeIsJSON(t *testing.T) {
	a := newStubReplica(t, "v@2026-08-07")
	gw, _, _ := newTestGateway(t, []string{a.url()}, GatewayOptions{
		Client: &http.Client{Transport: failingTransport{errors.New("dial: bad peer \x00\x1f \xff\xfe")}},
	})
	rec := gwGet(gw, "/v1/stats", nil)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("GET = %d, want 502", rec.Code)
	}
	var env struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("error body is not JSON: %v\n%q", err, rec.Body.String())
	}
	if env.Status != http.StatusBadGateway || !strings.Contains(env.Error, "bad peer") {
		t.Errorf("envelope = %+v, want status 502 and the upstream message", env)
	}
}
