package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"manrsmeter/internal/durable"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/synth"
)

// TestSnapshotVersionHeader: every /v1 answer — 200 and 304 alike —
// names the snapshot version it came from, the header the gateway's
// cross-replica coherence check reads.
func TestSnapshotVersionHeader(t *testing.T) {
	store, srv, _ := newTestServer(t, Options{})
	h := srv.Handler()
	want := ""

	w := testWorld(t)
	paths := []string{
		"/v1/stats",
		"/v1/report",
		"/v1/scenario",
		"/v1/as/" + strconv.Itoa(int(w.Graph.ASNs()[0])) + "/conformance",
	}
	for _, path := range paths {
		rec := get(h, path, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		ver := rec.Header().Get("X-MANRS-Snapshot")
		if ver == "" {
			t.Fatalf("GET %s: no X-MANRS-Snapshot header", path)
		}
		if want == "" {
			want = ver
		} else if ver != want {
			t.Errorf("GET %s: version %q, other routes said %q", path, ver, want)
		}
		// The 304 must carry it too: a revalidating client (or the
		// gateway) still learns which snapshot confirmed the match.
		reval := get(h, path, map[string]string{"If-None-Match": rec.Header().Get("ETag")})
		if reval.Code != http.StatusNotModified {
			t.Fatalf("GET %s reval: %d, want 304", path, reval.Code)
		}
		if reval.Header().Get("X-MANRS-Snapshot") != want {
			t.Errorf("GET %s: 304 lost the snapshot version header", path)
		}
	}
	if got := store.Version(store.DefaultDate()); got != want {
		t.Errorf("header version %q != store version %q", want, got)
	}
}

// TestPeerEndpoints: /peer/snapshot answers 404 until a snapshot is
// published, then streams an archive durable.Decode accepts, with the
// version both in the header and in /peer/version's inventory.
func TestPeerEndpoints(t *testing.T) {
	store, srv, reg := newTestServer(t, Options{})
	h := srv.Handler()
	date := store.DefaultDate()

	if rec := get(h, "/peer/snapshot", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("peer snapshot before publish: %d, want 404", rec.Code)
	}

	if _, err := store.Get(context.Background(), date); err != nil {
		t.Fatal(err)
	}
	ver := store.Version(date)

	rec := get(h, "/peer/version", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("peer version: %d", rec.Code)
	}
	pv := decode[PeerVersion](t, rec)
	if pv.Fingerprint != testWorld(t).Fingerprint() {
		t.Errorf("peer version fingerprint %q != world %q", pv.Fingerprint, testWorld(t).Fingerprint())
	}
	if got := pv.Published[date.Format("2006-01-02")]; got != ver {
		t.Errorf("peer version inventory says %q, store version is %q", got, ver)
	}

	rec = get(h, "/peer/snapshot?date="+date.Format("2006-01-02"), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("peer snapshot: %d", rec.Code)
	}
	if got := rec.Header().Get("X-MANRS-Snapshot"); got != ver {
		t.Errorf("peer snapshot header %q, want %q", got, ver)
	}
	d, err := durable.Decode(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("archive from the wire does not decode: %v", err)
	}
	if d.Version != ver || d.Fingerprint != testWorld(t).Fingerprint() {
		t.Errorf("decoded archive is %s/%s, want %s", d.Version, d.Fingerprint, ver)
	}
	if reg.Value("serve_peer_snapshot_serves_total") != 1 {
		t.Errorf("peer serves counter = %d, want 1", reg.Value("serve_peer_snapshot_serves_total"))
	}
}

// TestSyncFromNoRebuild is the wire-replication acceptance criterion:
// a store with Peers resolves a cold date from a peer without running
// the build pipeline, and then answers byte-identically with the same
// ETag.
func TestSyncFromNoRebuild(t *testing.T) {
	srcStore, srcSrv, _ := newTestServer(t, Options{})
	if _, err := srcStore.Get(context.Background(), srcStore.DefaultDate()); err != nil {
		t.Fatal(err)
	}
	src := httptest.NewServer(srcSrv.Handler())
	defer src.Close()

	lagReg := obsv.NewRegistry()
	lagStore := NewStore(testWorld(t), StoreOptions{Registry: lagReg, Peers: []string{src.URL}})
	snap, err := lagStore.Get(context.Background(), lagStore.DefaultDate())
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if snap.Version != srcStore.Version(srcStore.DefaultDate()) || snap.Source != "peer" {
		t.Errorf("synced %q from %q; want %q from the peer", snap.Version, snap.Source, srcStore.Version(srcStore.DefaultDate()))
	}
	if n := lagReg.Value("serve_snapshot_builds_total"); n != 0 {
		t.Fatalf("sync ran %d local builds, want 0", n)
	}
	if n := lagReg.Value("serve_snapshot_wire_syncs_total"); n != 1 {
		t.Errorf("wire syncs = %d, want 1", n)
	}

	lagSrv := NewServer(lagStore, Options{Registry: lagReg})
	for _, path := range []string{"/v1/stats", "/v1/report"} {
		a := get(srcSrv.Handler(), path, nil)
		b := get(lagSrv.Handler(), path, nil)
		if a.Code != http.StatusOK || b.Code != http.StatusOK {
			t.Fatalf("%s: source %d, synced %d", path, a.Code, b.Code)
		}
		if a.Body.String() != b.Body.String() {
			t.Errorf("%s: synced replica's body differs from the source", path)
		}
		if a.Header().Get("ETag") != b.Header().Get("ETag") {
			t.Errorf("%s: ETags diverged: %q vs %q", path, a.Header().Get("ETag"), b.Header().Get("ETag"))
		}
	}

	// A second Get is a hit on the published snapshot, not another pull.
	hits := lagReg.Value("serve_snapshot_hits_total")
	again, err := lagStore.Get(context.Background(), lagStore.DefaultDate())
	if err != nil || again != snap || lagReg.Value("serve_snapshot_hits_total") != hits+1 {
		t.Errorf("repeat Get: err %v, same snapshot %t; want a hit on the published snapshot", err, again == snap)
	}
	if n := lagReg.Value("serve_snapshot_wire_syncs_total"); n != 1 {
		t.Errorf("wire syncs after a repeat Get = %d, want 1", n)
	}
}

// A store with Peers answers any date a peer has published, not only
// the headline: a ?date= the peer built is pulled, never built here.
func TestPeersServeAnyPublishedDate(t *testing.T) {
	srcStore, srcSrv, _ := newTestServer(t, Options{})
	date := srcStore.DefaultDate().AddDate(0, 0, -7)
	if _, err := srcStore.Get(context.Background(), date); err != nil {
		t.Fatal(err)
	}
	src := httptest.NewServer(srcSrv.Handler())
	defer src.Close()

	reg := obsv.NewRegistry()
	store := NewStore(testWorld(t), StoreOptions{Registry: reg, Peers: []string{src.URL}})
	path := "/v1/stats?date=" + date.Format("2006-01-02")
	want, got := get(srcSrv.Handler(), path, nil), get(NewServer(store, Options{Registry: reg}).Handler(), path, nil)
	if got.Code != http.StatusOK || got.Body.String() != want.Body.String() || got.Header().Get("ETag") != want.Header().Get("ETag") {
		t.Fatalf("%s: %d, ETag %s; the peer answers 200, ETag %s", path, got.Code, got.Header().Get("ETag"), want.Header().Get("ETag"))
	}
	if b, w := reg.Value("serve_snapshot_builds_total"), reg.Value("serve_snapshot_wire_syncs_total"); b != 0 || w != 1 {
		t.Errorf("%d builds and %d wire syncs, want 0 and 1", b, w)
	}
}

// TestSyncFromWrongWorld: a peer serving a different world is refused —
// the fingerprint check means wire replication can mislead a replica
// into at worst a local build, never a wrong answer.
func TestSyncFromWrongWorld(t *testing.T) {
	srcStore, srcSrv, _ := newTestServer(t, Options{})
	if _, err := srcStore.Get(context.Background(), srcStore.DefaultDate()); err != nil {
		t.Fatal(err)
	}
	src := httptest.NewServer(srcSrv.Handler())
	defer src.Close()

	cfg := synth.NewConfig(99)
	cfg.Tier1s = 2
	cfg.LargeISPs = 2
	cfg.MediumISPs = 5
	cfg.SmallASes = 20
	cfg.CDNs = 2
	cfg.MANRSSmall = 2
	cfg.MANRSMedium = 1
	cfg.MANRSLarge = 1
	cfg.MANRSCDNs = 1
	other, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obsv.NewRegistry()
	store := NewStore(other, StoreOptions{Registry: reg, Peers: []string{src.URL}})
	stubBuilds(store)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snap, err := store.Get(ctx, store.DefaultDate())
	if err != nil {
		t.Fatal(err)
	}
	if reg.Value("serve_snapshot_wire_sync_errors_total") == 0 {
		t.Error("refused sync not counted as a wire sync error")
	}
	if snap.Source != "build" || snap.Version != store.Version(store.DefaultDate()) || reg.Value("serve_snapshot_builds_total") != 1 {
		t.Errorf("after a refused sync the store serves %s from %q; want its own version, built", snap.Version, snap.Source)
	}
}

// TestSyncPeersKeepsErrorChains: when every source fails, the error
// reports each attempt and still wraps each cause, so a refused dial is
// visible to errors.As behind a peer that answered 404 and the build's
// own failure.
func TestSyncPeersKeepsErrorChains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := "http://" + ln.Addr().String()
	ln.Close()
	_, srv, _ := newTestServer(t, Options{}) // nothing published: /peer/snapshot is a 404
	unpublished := httptest.NewServer(srv.Handler())
	defer unpublished.Close()

	store := NewStore(testWorld(t), StoreOptions{Registry: obsv.NewRegistry(), Peers: []string{refused, unpublished.URL}})
	buildErr := errors.New("injected build failure")
	store.buildFn = func(context.Context, time.Time) (*Snapshot, error) { return nil, buildErr }
	_, err = store.Get(context.Background(), store.DefaultDate())
	if err == nil {
		t.Fatal("Get succeeded with no source able to serve")
	}
	var opErr *net.OpError
	if !errors.As(err, &opErr) {
		t.Errorf("errors.As cannot find the refused dial's *net.OpError in %q", err)
	}
	if !strings.Contains(err.Error(), "status 404") {
		t.Errorf("error %q does not report the 404 peer", err)
	}
	if !errors.Is(err, buildErr) {
		t.Errorf("error %q does not wrap the build failure", err)
	}
}
