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
// a lagging store catches up from a peer without running the build
// pipeline, and then answers byte-identically with the same ETag.
func TestSyncFromNoRebuild(t *testing.T) {
	srcStore, srcSrv, _ := newTestServer(t, Options{})
	if _, err := srcStore.Get(context.Background(), srcStore.DefaultDate()); err != nil {
		t.Fatal(err)
	}
	src := httptest.NewServer(srcSrv.Handler())
	defer src.Close()

	lagReg := obsv.NewRegistry()
	lagStore := NewStore(testWorld(t), StoreOptions{Registry: lagReg})
	snap, err := lagStore.SyncFrom(context.Background(), nil, src.URL, lagStore.DefaultDate())
	if err != nil {
		t.Fatalf("SyncFrom: %v", err)
	}
	if snap.Version != srcStore.Version(srcStore.DefaultDate()) {
		t.Errorf("synced version %q != source %q", snap.Version, srcStore.Version(srcStore.DefaultDate()))
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

	// A second SyncFrom is a published-snapshot no-op, not another pull.
	again, err := lagStore.SyncFrom(context.Background(), nil, src.URL, lagStore.DefaultDate())
	if err != nil || again != snap {
		t.Errorf("repeat SyncFrom = (%v, %v), want the published snapshot unchanged", again, err)
	}
}

// TestSyncFromWrongWorld: a peer serving a different world is refused —
// the fingerprint check means wire replication can mislead a replica
// into at worst an error, never a wrong answer.
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
	store := NewStore(other, StoreOptions{Registry: reg})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := store.SyncFrom(ctx, nil, src.URL, store.DefaultDate()); err == nil {
		t.Fatal("SyncFrom accepted an archive from a different world")
	}
	if reg.Value("serve_snapshot_wire_sync_errors_total") == 0 {
		t.Error("refused sync not counted as a wire sync error")
	}
	if store.publishedAt(store.DefaultDate()) != nil {
		t.Error("refused sync still published a snapshot")
	}
}

// TestSyncPeersKeepsErrorChains: when every peer fails, the returned
// error reports each attempt and still wraps each cause, so a refused
// dial is visible to errors.As behind a peer that answered 404.
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

	store := NewStore(testWorld(t), StoreOptions{Registry: obsv.NewRegistry()})
	_, _, err = store.SyncPeers(context.Background(), nil, []string{refused, unpublished.URL}, store.DefaultDate())
	if err == nil {
		t.Fatal("SyncPeers succeeded with no peer able to serve")
	}
	var opErr *net.OpError
	if !errors.As(err, &opErr) {
		t.Errorf("errors.As cannot find the refused dial's *net.OpError in %q", err)
	}
	if !strings.Contains(err.Error(), "status 404") {
		t.Errorf("error %q does not report the 404 peer", err)
	}
	if _, _, err := store.SyncPeers(context.Background(), nil, nil, store.DefaultDate()); err == nil {
		t.Error("SyncPeers with no peers returned no error")
	}
}
