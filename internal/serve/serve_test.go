package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"manrsmeter/internal/obsv"
	"manrsmeter/internal/synth"
)

// sharedWorld is generated once: every test reads it through immutable
// snapshot views, so sharing is safe and keeps the suite fast.
var (
	worldOnce sync.Once
	worldVal  *synth.World
	worldErr  error
)

func testWorld(t testing.TB) *synth.World {
	t.Helper()
	worldOnce.Do(func() {
		cfg := synth.NewConfig(1)
		cfg.Tier1s = 3
		cfg.LargeISPs = 3
		cfg.MediumISPs = 60
		cfg.SmallASes = 700
		cfg.CDNs = 8
		cfg.MANRSSmall = 70
		cfg.MANRSMedium = 20
		cfg.MANRSLarge = 3
		cfg.MANRSCDNs = 4
		worldVal, worldErr = synth.Generate(cfg)
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return worldVal
}

// newTestServer builds a store and server over the shared world with a
// private registry, so counter assertions never see another test's
// traffic.
func newTestServer(t testing.TB, opts Options) (*Store, *Server, *obsv.Registry) {
	t.Helper()
	reg := obsv.NewRegistry()
	store := NewStore(testWorld(t), StoreOptions{Registry: reg})
	opts.Registry = reg
	return store, NewServer(store, opts), reg
}

func get(h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decode[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	return v
}

// coldWorld generates a small world on every call: same config, fresh
// keys, an empty signature-verdict memo. Tests that count verifications
// cannot use the shared world, whose memo an earlier test has filled.
func coldWorld(t *testing.T) *synth.World {
	t.Helper()
	cfg := synth.NewConfig(5)
	cfg.Tier1s, cfg.LargeISPs, cfg.MediumISPs, cfg.SmallASes, cfg.CDNs = 3, 1, 15, 100, 1
	cfg.MANRSSmall, cfg.MANRSMedium, cfg.MANRSLarge, cfg.MANRSCDNs = 12, 5, 1, 1
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// sigMisses is the process-wide count of Ed25519 verifications performed.
func sigMisses() int64 {
	return obsv.Default().Value("rpki_signature_checks_total", "memo", "miss")
}

// A weekly series runs the relying party once per date, but each
// signature is verified once per world: four cold weekly builds perform
// about the Ed25519 verifications of one cold relying-party run.
func TestColdBuildsVerifyEachSignatureOnce(t *testing.T) {
	one := coldWorld(t)
	headline := one.Date(one.Config.EndYear)
	before := sigMisses()
	if _, err := one.VRPsAt(headline); err != nil {
		t.Fatal(err)
	}
	oneRun := sigMisses() - before
	if oneRun == 0 {
		t.Fatal("a cold relying-party run verified nothing")
	}

	// Same config, fresh keys, fresh memo: nothing carries over.
	store := NewStore(coldWorld(t), StoreOptions{Registry: obsv.NewRegistry()})
	before = sigMisses()
	for weeks := 3; weeks >= 0; weeks-- {
		if _, err := store.Get(context.Background(), headline.AddDate(0, 0, -7*weeks)); err != nil {
			t.Fatal(err)
		}
	}
	built := sigMisses() - before
	if built < oneRun || built*10 > oneRun*11 {
		t.Fatalf("4 weekly builds verified %d signatures, one cold run verifies %d; want between 1× and 1.1×", built, oneRun)
	}
}

// TestColdConcurrentQueriesCoalesce is the acceptance criterion for the
// singleflight path: 64 goroutines race mixed queries against a cold
// store, exactly one dataset build runs and the other 63 requests wait
// on it. The build is held until they all do, so a fast build cannot
// publish before the stragglers arrive and turn them into cache hits.
func TestColdConcurrentQueriesCoalesce(t *testing.T) {
	store, srv, reg := newTestServer(t, Options{})
	h := srv.Handler()
	w := testWorld(t)
	release := make(chan struct{})
	build := store.buildFn
	store.buildFn = func(ctx context.Context, date time.Time) (*Snapshot, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return build(ctx, date)
	}

	asn := w.Graph.ASNs()[0]
	og := w.OriginationsAt(store.DefaultDate())[0]
	paths := []string{
		"/v1/stats",
		fmt.Sprintf("/v1/as/%d/conformance", asn),
		"/v1/prefix/" + og.Prefix.String(),
		"/v1/report",
	}

	const n = 64
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = get(h, paths[i%len(paths)], nil).Code
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Value("serve_snapshot_coalesced_total") < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests joined the in-flight build, want %d", reg.Value("serve_snapshot_coalesced_total"), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d (%s): got %d", i, paths[i%len(paths)], code)
		}
	}
	if builds := reg.Value("serve_snapshot_builds_total"); builds != 1 {
		t.Fatalf("64 concurrent cold queries ran %d builds, want exactly 1", builds)
	}
	if got := reg.Value("serve_snapshot_coalesced_total"); got != n-1 {
		t.Errorf("%d requests coalesced onto the in-flight build, want %d", got, n-1)
	}
}

// TestShedsAtAdmissionLimit holds the admission slots full with a
// blocking build and checks arrivals beyond the limit are answered 503
// with Retry-After, not queued.
func TestShedsAtAdmissionLimit(t *testing.T) {
	reg := obsv.NewRegistry()
	store := NewStore(testWorld(t), StoreOptions{Registry: reg})
	release := make(chan struct{})
	store.buildFn = func(ctx context.Context, date time.Time) (*Snapshot, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &Snapshot{Version: "test@blocked", Date: date, Stats: &EcosystemStats{}}, nil
	}
	const limit, total = 4, 10
	srv := NewServer(store, Options{MaxInFlight: limit, Registry: reg})
	h := srv.Handler()

	type result struct {
		code       int
		retryAfter string
	}
	results := make([]result, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := get(h, "/v1/stats", nil)
			results[i] = result{rec.Code, rec.Header().Get("Retry-After")}
		}(i)
	}
	// The admitted requests hold their slots until the build is
	// released, so exactly total-limit requests must shed. Wait for
	// them all to have been turned away before releasing the build.
	deadline := time.Now().Add(10 * time.Second)
	for reg.Value("serve_shed_total") < total-limit {
		if time.Now().After(deadline) {
			t.Fatalf("shed %d requests, want %d", reg.Value("serve_shed_total"), total-limit)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	ok, shed := 0, 0
	for _, r := range results {
		switch r.code {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
			// Retry-After scales with shed pressure; any positive
			// integer number of seconds is well-formed here.
			if secs, err := strconv.Atoi(r.retryAfter); err != nil || secs < 1 {
				t.Errorf("503 with malformed Retry-After: %q", r.retryAfter)
			}
		default:
			t.Errorf("unexpected status %d", r.code)
		}
	}
	if ok != limit || shed != total-limit {
		t.Fatalf("got %d ok + %d shed, want %d + %d", ok, shed, limit, total-limit)
	}
	if reg.Value("serve_shed_total") != total-limit {
		t.Errorf("serve_shed_total = %d, want %d", reg.Value("serve_shed_total"), total-limit)
	}
}

// TestETagRevalidation is the cache-coherence acceptance criterion: a
// second server over the same store, re-rendering from the snapshot,
// must produce byte-identical JSON and the same strong ETag, and
// If-None-Match revalidation must answer 304.
func TestETagRevalidation(t *testing.T) {
	store, srv, _ := newTestServer(t, Options{})
	h := srv.Handler()

	first := get(h, "/v1/stats", nil)
	if first.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", first.Code, first.Body.String())
	}
	etag := first.Header().Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("missing strong ETag, got %q", etag)
	}

	// A second server over the store has an empty response cache, so
	// this re-renders from the snapshot.
	reg2 := obsv.NewRegistry()
	srv2 := NewServer(store, Options{Registry: reg2})
	second := get(srv2.Handler(), "/v1/stats", nil)
	if second.Code != http.StatusOK {
		t.Fatalf("stats from the second server: %d", second.Code)
	}
	if second.Body.String() != first.Body.String() {
		t.Error("response bytes changed across a re-render of one version")
	}
	if got := second.Header().Get("ETag"); got != etag {
		t.Errorf("ETag changed across a re-render: %q != %q", got, etag)
	}

	not := get(srv2.Handler(), "/v1/stats", map[string]string{"If-None-Match": etag})
	if not.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match revalidation: got %d, want 304", not.Code)
	}
	if not.Body.Len() != 0 {
		t.Errorf("304 carried a body: %q", not.Body.String())
	}
	if reg2.Value("serve_not_modified_total") != 1 {
		t.Errorf("serve_not_modified_total = %d, want 1", reg2.Value("serve_not_modified_total"))
	}

	// A weak or listed validator must also revalidate (RFC 9110 list
	// grammar), and a stale one must not.
	weak := get(srv2.Handler(), "/v1/stats", map[string]string{"If-None-Match": `"deadbeef", W/` + etag})
	if weak.Code != http.StatusNotModified {
		t.Errorf("list If-None-Match: got %d, want 304", weak.Code)
	}
	stale := get(srv2.Handler(), "/v1/stats", map[string]string{"If-None-Match": `"deadbeef"`})
	if stale.Code != http.StatusOK {
		t.Errorf("stale If-None-Match: got %d, want 200", stale.Code)
	}
}

func TestCachedResponsesCountHits(t *testing.T) {
	_, srv, reg := newTestServer(t, Options{})
	h := srv.Handler()
	if rec := get(h, "/v1/stats", nil); rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	if rec := get(h, "/v1/stats", nil); rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	if hits := reg.Value("serve_cache_hits_total"); hits != 1 {
		t.Errorf("serve_cache_hits_total = %d, want 1", hits)
	}
	if misses := reg.Value("serve_cache_misses_total"); misses != 1 {
		t.Errorf("serve_cache_misses_total = %d, want 1", misses)
	}
}

// headerWriter is a ResponseWriter that keeps only what the handler
// decides, so an allocation count is the handler's own.
type headerWriter struct {
	h    http.Header
	code int
}

func (w *headerWriter) Header() http.Header         { return w.h }
func (w *headerWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *headerWriter) WriteHeader(code int)        { w.code = code }

// A cache hit and a 304 read stored facts: the version, the body, the
// ETag. What they still allocate is the request record, the echoed
// traceparent, the deadline context, the cache key and one slice per
// response header — 15 at the time of writing, against 30 when every
// request formatted its snapshot version (a reflect-printed config
// hashed into the fingerprint). The ceiling leaves room for the
// standard library to move, not for per-request formatting to return.
func TestHitAndRevalidationStayUnderAllocationCeiling(t *testing.T) {
	const ceiling = 20
	_, srv, _ := newTestServer(t, Options{})
	h := srv.Handler()
	const path = "/v1/stats"
	etag := get(h, path, nil).Header().Get("ETag") // renders and caches
	hit := httptest.NewRequest(http.MethodGet, path, nil)
	hit.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	reval := hit.Clone(context.Background())
	reval.Header.Set("If-None-Match", etag)
	for _, c := range []struct {
		name string
		req  *http.Request
		code int
	}{{"hit", hit, http.StatusOK}, {"304", reval, http.StatusNotModified}} {
		w := &headerWriter{h: http.Header{}}
		n := testing.AllocsPerRun(200, func() {
			clear(w.h)
			h.ServeHTTP(w, c.req)
		})
		if w.code != c.code {
			t.Fatalf("%s answered %d, want %d", c.name, w.code, c.code)
		}
		if n > ceiling {
			t.Errorf("%s allocates %v times per request, ceiling %d", c.name, n, ceiling)
		}
	}
}

func TestASConformanceEndpoint(t *testing.T) {
	store, srv, _ := newTestServer(t, Options{})
	h := srv.Handler()
	w := testWorld(t)
	member := w.MANRS.Members(store.DefaultDate())[0]

	rec := get(h, fmt.Sprintf("/v1/as/%d/conformance", member.ASN), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("conformance: %d %s", rec.Code, rec.Body.String())
	}
	got := decode[ASConformance](t, rec)
	if got.ASN != member.ASN || !got.Member {
		t.Errorf("ASN %d member=%v, want member %d", got.ASN, got.Member, member.ASN)
	}
	if got.Program == "" || got.Joined == "" {
		t.Errorf("member fields missing: program=%q joined=%q", got.Program, got.Joined)
	}
	if got.SizeClass == "" {
		t.Error("size class missing")
	}
	if got.Action4.Threshold == nil {
		t.Fatal("Action 4 threshold missing")
	}
	if th := *got.Action4.Threshold; th != 90 && th != 100 {
		t.Errorf("Action 4 threshold = %v, want 90 (ISP) or 100 (CDN)", th)
	}
	sum := 0
	for _, n := range got.OriginRPKI {
		sum += n
	}
	if sum != got.Originated {
		t.Errorf("origin RPKI breakdown sums to %d, want %d", sum, got.Originated)
	}
}

func TestPrefixEndpoint(t *testing.T) {
	store, srv, _ := newTestServer(t, Options{})
	h := srv.Handler()
	snap, err := store.Get(context.Background(), store.DefaultDate())
	if err != nil {
		t.Fatal(err)
	}
	po := snap.Dataset().PrefixOrigins[0]

	rec := get(h, fmt.Sprintf("/v1/prefix/%s?origin=%d", po.Prefix, po.Origin), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("prefix: %d %s", rec.Code, rec.Body.String())
	}
	got := decode[PrefixInfo](t, rec)
	if got.Prefix != po.Prefix.String() {
		t.Errorf("prefix %q, want %q", got.Prefix, po.Prefix)
	}
	if len(got.Originations) == 0 {
		t.Fatal("no originations for a routed prefix")
	}
	found := false
	for _, o := range got.Originations {
		if o.Origin == po.Origin {
			found = true
			if o.RPKI != statusKey(po.RPKI) || o.IRR != statusKey(po.IRR) {
				t.Errorf("statuses %s/%s, want %s/%s", o.RPKI, o.IRR, statusKey(po.RPKI), statusKey(po.IRR))
			}
		}
	}
	if !found {
		t.Errorf("origin AS%d missing from originations", po.Origin)
	}
	if got.Validation == nil {
		t.Fatal("?origin given but no validation block")
	}
	if got.Validation.RPKI != statusKey(po.RPKI) {
		t.Errorf("validation rpki %s, want %s", got.Validation.RPKI, statusKey(po.RPKI))
	}
}

func TestStatsEndpointSanity(t *testing.T) {
	_, srv, _ := newTestServer(t, Options{})
	rec := get(srv.Handler(), "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	got := decode[EcosystemStats](t, rec)
	if got.ASes == 0 || got.Members == 0 || got.PrefixOrigins == 0 {
		t.Fatalf("empty aggregates: %+v", got)
	}
	if n := got.Conformant + got.Unconformant + got.Unregistered; n != got.PrefixOrigins {
		t.Errorf("conformance partition sums to %d, want %d", n, got.PrefixOrigins)
	}
	if len(got.SizeClasses) != 6 {
		t.Errorf("size classes = %d, want 6 (3 classes x membership)", len(got.SizeClasses))
	}
}

func TestReportEndpoints(t *testing.T) {
	_, srv, _ := newTestServer(t, Options{})
	h := srv.Handler()

	idx := get(h, "/v1/report", nil)
	if idx.Code != http.StatusOK {
		t.Fatalf("report index: %d", idx.Code)
	}
	index := decode[ReportIndex](t, idx)
	if len(index.Sections) < 10 {
		t.Fatalf("only %d sections listed", len(index.Sections))
	}

	for _, name := range []string{"table2-action1", "fig6-saturation"} {
		rec := get(h, "/v1/report/"+name, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("section %s: %d %s", name, rec.Code, rec.Body.String())
		}
		sec := decode[ReportSection](t, rec)
		if sec.Section != name || sec.Rendered == "" || sec.Title == "" {
			t.Errorf("section %s: empty render", name)
		}
	}
}

func TestBadInputs(t *testing.T) {
	_, srv, _ := newTestServer(t, Options{})
	h := srv.Handler()
	cases := []struct {
		path string
		want int
	}{
		{"/v1/as/banana/conformance", http.StatusBadRequest},
		{"/v1/as/99999999/conformance", http.StatusNotFound},
		{"/v1/prefix/banana", http.StatusBadRequest},
		{"/v1/prefix/10.0.0.0/24?origin=banana", http.StatusBadRequest},
		{"/v1/stats?date=tomorrow", http.StatusBadRequest},
		{"/v1/report/no-such-section", http.StatusNotFound},
	}
	for _, tc := range cases {
		rec := get(h, tc.path, nil)
		if rec.Code != tc.want {
			t.Errorf("%s: got %d, want %d", tc.path, rec.Code, tc.want)
		}
		var env map[string]any
		err := json.Unmarshal(rec.Body.Bytes(), &env)
		if msg, _ := env["error"].(string); err != nil || msg == "" {
			t.Errorf("%s: malformed error envelope %q", tc.path, rec.Body.String())
		}
	}
}

// TestBuildFailureRetries checks a failed build is not sticky, but is
// not retried immediately either: requests inside the backoff window
// get 503 + Retry-After, and once the window passes a fresh build runs.
func TestBuildFailureRetries(t *testing.T) {
	reg := obsv.NewRegistry()
	store := NewStore(testWorld(t), StoreOptions{Registry: reg})
	base := time.Now()
	var offset atomic.Int64 // nanoseconds of fake time elapsed
	store.nowFn = func() time.Time { return base.Add(time.Duration(offset.Load())) }
	var fail atomic.Bool
	fail.Store(true)
	store.buildFn = func(ctx context.Context, date time.Time) (*Snapshot, error) {
		if fail.Load() {
			return nil, fmt.Errorf("transient build failure")
		}
		return &Snapshot{Version: "test@ok", Date: date, Stats: &EcosystemStats{}}, nil
	}
	srv := NewServer(store, Options{Registry: reg})
	if rec := get(srv.Handler(), "/v1/stats", nil); rec.Code != http.StatusInternalServerError {
		t.Fatalf("failed build: got %d, want 500", rec.Code)
	}

	// Inside the backoff window: refused with 503 + Retry-After, and no
	// new build runs.
	rec := get(srv.Handler(), "/v1/stats", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request inside backoff: got %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if secs, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("backoff 503 with malformed Retry-After: %q", rec.Header().Get("Retry-After"))
	}
	if builds := reg.Value("serve_snapshot_builds_total"); builds != 1 {
		t.Errorf("backoff did not suppress the rebuild: %d builds", builds)
	}
	if reg.Value("serve_snapshot_backoff_total") != 1 {
		t.Errorf("serve_snapshot_backoff_total = %d, want 1", reg.Value("serve_snapshot_backoff_total"))
	}

	// Past the window (first-failure delay is at most BackoffBase): the
	// next request triggers a fresh build.
	fail.Store(false)
	offset.Add(int64(2 * DefaultBackoffBase))
	if rec := get(srv.Handler(), "/v1/stats", nil); rec.Code != http.StatusOK {
		t.Fatalf("retry after backoff window: got %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if reg.Value("serve_snapshot_build_errors_total") != 1 {
		t.Errorf("build errors = %d, want 1", reg.Value("serve_snapshot_build_errors_total"))
	}
}

// A build deadline reaches the cold relying party: the run stops before
// it verifies the repository, the build fails into the backoff schedule
// instead of publishing a snapshot validated against part of the VRP
// set, and the build after the window is the one an undisturbed store
// makes.
func TestBuildTimeoutStopsColdRelyingParty(t *testing.T) {
	ctx := context.Background()
	w := coldWorld(t)
	store := NewStore(w, StoreOptions{Registry: obsv.NewRegistry(), BuildTimeout: time.Nanosecond})
	base := time.Now()
	var offset atomic.Int64 // nanoseconds of fake time elapsed
	store.nowFn = func() time.Time { return base.Add(time.Duration(offset.Load())) }
	date := store.DefaultDate()

	before := sigMisses()
	if _, err := store.Get(ctx, date); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("build past its deadline: err %v, want context.DeadlineExceeded", err)
	}
	if checked, certs := sigMisses()-before, len(w.Anchors)+w.Repo.NumCerts(); checked > int64(certs) {
		t.Fatalf("the timed-out build verified %d signatures, %d more than the certificates': the deadline did not reach the ROA checks", checked, checked-int64(certs))
	}
	var be *BackoffError
	if _, err := store.Get(ctx, date); !errors.As(err, &be) {
		t.Fatalf("Get inside the backoff window: err %v, want a BackoffError", err)
	}

	store.buildTimeout = 0
	offset.Add(int64(2 * DefaultBackoffBase))
	snap, err := store.Get(ctx, date)
	if err != nil {
		t.Fatalf("rebuild after the backoff window: %v", err)
	}
	ref, err := NewStore(coldWorld(t), StoreOptions{Registry: obsv.NewRegistry()}).Get(ctx, date)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != ref.Version || !reflect.DeepEqual(snap.RPKI.All(), ref.RPKI.All()) || !reflect.DeepEqual(snap.Stats, ref.Stats) {
		t.Fatalf("rebuild after a timed-out build differs from an undisturbed build: version %s vs %s, %d vs %d VRPs",
			snap.Version, ref.Version, len(snap.RPKI.All()), len(ref.RPKI.All()))
	}
}

// TestBackoffEscalatesAndResets drives the store through consecutive
// failures on a fake clock: the retry window grows exponentially
// (within the jitter envelope), surfaces in Status(), and collapses to
// zero on the first successful build.
func TestBackoffEscalatesAndResets(t *testing.T) {
	reg := obsv.NewRegistry()
	store := NewStore(testWorld(t), StoreOptions{
		Registry:    reg,
		BackoffBase: time.Second,
		BackoffMax:  time.Minute,
	})
	base := time.Now()
	var offset atomic.Int64
	store.nowFn = func() time.Time { return base.Add(time.Duration(offset.Load())) }
	var fail atomic.Bool
	fail.Store(true)
	store.buildFn = func(ctx context.Context, date time.Time) (*Snapshot, error) {
		if fail.Load() {
			return nil, fmt.Errorf("injected failure")
		}
		return &Snapshot{Version: "test@ok", Date: date, Stats: &EcosystemStats{}}, nil
	}
	ctx := context.Background()
	date := store.DefaultDate()

	for n := 1; n <= 4; n++ {
		if _, err := store.Get(ctx, date); err == nil {
			t.Fatalf("failure %d: build unexpectedly succeeded", n)
		}
		var be *BackoffError
		if _, err := store.Get(ctx, date); !errors.As(err, &be) {
			t.Fatalf("failure %d: got %v, want BackoffError", n, err)
		}
		if be.Failures != n {
			t.Errorf("failure count %d, want %d", be.Failures, n)
		}
		// Equal jitter: the nth delay is in [base·2^(n-1)/2, base·2^(n-1)].
		wait := be.Until.Sub(store.nowFn())
		lo, hi := time.Second<<(n-1)/2, time.Second<<(n-1)
		if wait <= 0 || wait > hi {
			t.Errorf("failure %d: retry window %v outside (0, %v]", n, wait, hi)
		}
		if n > 1 && wait < lo/2 {
			t.Errorf("failure %d: retry window %v suspiciously short of %v", n, wait, lo)
		}
		offset.Add(int64(hi) + int64(time.Millisecond))
	}

	status := store.Status()
	key := "snapshot." + date.Format("2006-01-02") + ".backoff"
	if !strings.Contains(status[key], "4 consecutive") {
		t.Errorf("status[%s] = %q, want the failure count surfaced", key, status[key])
	}

	fail.Store(false)
	if _, err := store.Get(ctx, date); err != nil {
		t.Fatalf("recovery build: %v", err)
	}
	if _, ok := store.Status()[key]; ok {
		t.Error("backoff status survived a successful build")
	}
	if _, err := store.Get(ctx, date); err != nil {
		t.Fatalf("Get after recovery hit stale backoff: %v", err)
	}
}

func TestHealthzAndStatus(t *testing.T) {
	store, srv, _ := newTestServer(t, Options{})
	h := srv.Handler()

	rec := get(h, "/healthz", nil)
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "warming" {
		t.Fatalf("cold healthz: %d %q", rec.Code, rec.Body.String())
	}
	if store.Ready() {
		t.Error("store ready before any build")
	}
	if _, err := store.Get(context.Background(), store.DefaultDate()); err != nil {
		t.Fatal(err)
	}
	rec = get(h, "/healthz", nil)
	if strings.TrimSpace(rec.Body.String()) != "ok" {
		t.Fatalf("warm healthz: %q", rec.Body.String())
	}
	if !store.Ready() {
		t.Error("store not ready after build")
	}
	status := store.Status()
	key := "snapshot." + store.DefaultDate().Format("2006-01-02")
	if status[key] != store.Version(store.DefaultDate()) {
		t.Errorf("status[%s] = %q, want the published version", key, status[key])
	}
}

func TestListenServeShutdown(t *testing.T) {
	_, srv, _ := newTestServer(t, Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("over the wire: %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr.String() + "/v1/stats"); err == nil {
		t.Error("server still answering after Shutdown")
	}
	// Shutdown is terminal: Serve must refuse to restart.
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("Listen succeeded on a closed server")
	}
}

func TestDateKeyedSnapshots(t *testing.T) {
	store, srv, reg := newTestServer(t, Options{})
	h := srv.Handler()
	w := testWorld(t)
	earlier := w.Date(w.Config.EndYear - 1).Format("2006-01-02")

	head := get(h, "/v1/stats", nil)
	past := get(h, "/v1/stats?date="+earlier, nil)
	if head.Code != http.StatusOK || past.Code != http.StatusOK {
		t.Fatalf("codes %d/%d", head.Code, past.Code)
	}
	if head.Body.String() == past.Body.String() {
		t.Error("historical snapshot identical to headline (date not pinned)")
	}
	headStats := decode[EcosystemStats](t, head)
	pastStats := decode[EcosystemStats](t, past)
	if pastStats.Members >= headStats.Members {
		t.Errorf("membership did not grow: %d (past) >= %d (head)", pastStats.Members, headStats.Members)
	}
	if builds := reg.Value("serve_snapshot_builds_total"); builds != 2 {
		t.Errorf("builds = %d, want 2 (one per date key)", builds)
	}
	if len(store.Status()) != 2 {
		t.Errorf("status has %d entries, want 2", len(store.Status()))
	}
	// A version reads "<fingerprint>@<date>" whether it is the headline's
	// stored string or another date's, composed on the spot.
	fresh := NewStore(w, StoreOptions{Registry: obsv.NewRegistry()})
	for _, c := range []struct {
		rec  *httptest.ResponseRecorder
		date time.Time
	}{{head, store.DefaultDate()}, {past, w.Date(w.Config.EndYear - 1)}} {
		want := w.Fingerprint() + "@" + c.date.Format("2006-01-02")
		if got := c.rec.Header().Get("X-MANRS-Snapshot"); got != want {
			t.Errorf("X-MANRS-Snapshot %q, want %q", got, want)
		}
		if got := fresh.Version(c.date); got != want {
			t.Errorf("Version(%s) on a fresh store = %q, want %q", c.date.Format("2006-01-02"), got, want)
		}
	}
}
