package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"manrsmeter/internal/core"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/synth"
)

// sigChecksSplit is signatureChecks by outcome.
func sigChecksSplit() (hit, miss int64) {
	return obsv.Default().Value("rpki_signature_checks_total", "memo", "hit"), sigMisses()
}

// datasetBuilds is how many datasets this process has built.
func datasetBuilds() int64 { return obsv.Default().Value("synth_dataset_build_seconds") }

// One cold Store.Get runs the relying party once: on a fresh world it
// checks exactly what one raw run on a same-config world checks, and
// answers none of it from the memo beyond the run's own anchor
// re-checks. (A second run would hit once per object.)
func TestColdGetRunsRelyingPartyOnce(t *testing.T) {
	raw := coldWorld(t)
	headline := raw.Date(raw.Config.EndYear)
	h0, m0 := sigChecksSplit()
	if _, err := raw.VRPsAt(headline); err != nil {
		t.Fatal(err)
	}
	h1, m1 := sigChecksSplit()
	runHits, runMisses := h1-h0, m1-m0

	store := NewStore(coldWorld(t), StoreOptions{Registry: obsv.NewRegistry()})
	if _, err := store.Get(context.Background(), headline); err != nil {
		t.Fatal(err)
	}
	h2, m2 := sigChecksSplit()
	if hits, misses := h2-h1, m2-m1; hits != runHits || misses != runMisses {
		t.Fatalf("cold Get: %d memo hits, %d verifications; one relying-party run: %d and %d", hits, misses, runHits, runMisses)
	}
}

// A store published by WarmStart and one that pulled from a peer hold
// the builder's dataset and registries, so they answer every report section
// and scenario byte for byte like the store that built — without a
// relying-party run until a request needs one the archive cannot hold
// (a scenario's fork, Figure 6's other years), and without building any
// dataset but the forks'.
func TestRestoredStoresAnswerLikeTheBuilder(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	server := func(w *synth.World, durable bool, peers ...string) (*Store, http.Handler, *obsv.Registry) {
		reg := obsv.NewRegistry()
		opts := StoreOptions{Registry: reg, Logf: t.Logf, Peers: peers}
		if durable {
			opts.Durable = openDurable(t, dir, reg)
		}
		store := NewStore(w, opts)
		return store, NewServer(store, Options{Registry: reg, RequestTimeout: time.Minute}).Handler(), reg
	}

	// Three worlds of one config: same fingerprint, no shared state.
	built, builtH, _ := server(coldWorld(t), true)
	headline := built.DefaultDate()
	buildsBefore := datasetBuilds()
	if _, err := built.Get(ctx, headline); err != nil {
		t.Fatal(err)
	}
	built.WaitPersist()
	peer := httptest.NewServer(builtH)
	defer peer.Close()

	checksBefore := signatureChecks()
	warm, warmH, warmReg := server(coldWorld(t), true)
	if n, err := warm.WarmStart(ctx); err != nil || n != 1 {
		t.Fatalf("WarmStart = %d, %v; want 1, nil", n, err)
	}
	synced, syncedH, syncedReg := server(coldWorld(t), false, peer.URL)
	snap, err := synced.Get(ctx, headline)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Source != "peer" {
		t.Fatalf("the synced store's snapshot came from %q, want the peer", snap.Source)
	}

	same := func(path string) {
		t.Helper()
		want := get(builtH, path, nil)
		if want.Code != http.StatusOK {
			t.Fatalf("%s from the builder: %d %s", path, want.Code, want.Body.String())
		}
		for name, h := range map[string]http.Handler{"warm-started": warmH, "synced": syncedH} {
			got := get(h, path, nil)
			if got.Code != http.StatusOK || got.Body.String() != want.Body.String() || got.Header().Get("ETag") != want.Header().Get("ETag") {
				t.Errorf("%s: the %s store answers %d, ETag %s; the builder 200, ETag %s", path, name, got.Code, got.Header().Get("ETag"), want.Header().Get("ETag"))
			}
		}
	}

	// Sections that read the headline date only: no relying-party run.
	needsOtherDates := map[string]bool{"fig6-saturation": true, "scenarios": true}
	same("/v1/stats")
	for _, sec := range core.Sections {
		if sec.Offer&core.Served != 0 && !needsOtherDates[sec.Name] {
			same("/v1/report/" + sec.Name)
		}
	}
	if n := signatureChecks() - checksBefore; n != 0 {
		t.Fatalf("restoring two stores and answering their headline sections checked %d RPKI signatures, want 0", n)
	}

	// Scenarios: the baseline is the restored view, so each run is one
	// relying-party run (the fork's) on every store.
	before := signatureChecks()
	if _, err := warm.world.VRPsAt(headline); err != nil {
		t.Fatal(err)
	}
	oneRun := signatureChecks() - before
	for _, name := range []string{"as0-hijack", "anchor-pairs"} {
		before = signatureChecks()
		same("/v1/scenario/" + name)
		// Three stores ran it; hijack and anchor ROAs add a few objects.
		if n := signatureChecks() - before; n < 3*oneRun || n > 3*oneRun*5/4 {
			t.Errorf("scenario %s on three stores checked %d signatures; one relying-party run checks %d, want about 3 runs", name, n, oneRun)
		}
	}
	for name := range needsOtherDates {
		same("/v1/report/" + name)
	}

	// The builder built the headline dataset; nobody else built anything
	// but scenario forks: one per builtin scenario on each of three
	// stores, the "scenarios" section sharing the 2 the scenario routes
	// already ran.
	if n, want := datasetBuilds()-buildsBefore, int64(1+3*5); n != want {
		t.Errorf("%d datasets built, want %d (the builder's headline and 5 forks per store)", n, want)
	}
	for name, reg := range map[string]*obsv.Registry{"warm-started": warmReg, "synced": syncedReg} {
		if n := reg.Value("serve_snapshot_builds_total"); n != 0 {
			t.Errorf("the %s store ran %d snapshot builds, want 0", name, n)
		}
	}
}

// stubBuilds makes the store's builds instant.
func stubBuilds(store *Store) {
	store.buildFn = func(_ context.Context, date time.Time) (*Snapshot, error) {
		return &Snapshot{Version: store.Version(date), Date: date, World: store.world, Stats: &EcosystemStats{}}, nil
	}
}

// ?date= can only ask for the world's study window: every new date is a
// full build, so anything else is a 400 before the store hears of it.
func TestDateOutsideStudyWindowIsRefused(t *testing.T) {
	store, srv, reg := newTestServer(t, Options{})
	stubBuilds(store)
	w := testWorld(t)
	first, last := w.Date(w.Config.StartYear), w.Date(w.Config.EndYear)
	for _, tc := range []struct {
		date string
		code int
	}{
		{first.Format("2006-01-02"), http.StatusOK},
		{first.AddDate(0, 0, -1).Format("2006-01-02"), http.StatusBadRequest},
		{last.AddDate(0, 0, -7).Format("2006-01-02"), http.StatusOK},
		{last.Format("2006-01-02"), http.StatusOK},
		{last.AddDate(0, 0, 1).Format("2006-01-02"), http.StatusBadRequest},
		{"1800-01-01", http.StatusBadRequest},
		{"9999-12-31", http.StatusBadRequest},
		{"2022-5-1", http.StatusBadRequest},
	} {
		// The peer route shares the check and never builds: a good date
		// nobody published is a 404.
		if rec := get(srv.Handler(), "/peer/snapshot?date="+tc.date, nil); (rec.Code == http.StatusBadRequest) != (tc.code == http.StatusBadRequest) {
			t.Errorf("/peer/snapshot?date=%s: %d", tc.date, rec.Code)
		}
		if rec := get(srv.Handler(), "/v1/stats?date="+tc.date, nil); rec.Code != tc.code {
			t.Errorf("/v1/stats?date=%s: %d, want %d (%s)", tc.date, rec.Code, tc.code, rec.Body.String())
		}
	}
	if n := reg.Value("serve_snapshot_builds_total"); n != 3 {
		t.Errorf("%d builds for 3 distinct dates inside the window", n)
	}
}

// However many dates are asked for, the store keeps at most
// synth.ViewCacheCap snapshots published, the headline always among
// them; a dropped date is simply built again.
func TestPublishedSnapshotsAreCapped(t *testing.T) {
	store, _, reg := newTestServer(t, Options{})
	stubBuilds(store)
	ctx := context.Background()
	headline := store.DefaultDate()
	for i := 0; i <= 2*synth.ViewCacheCap; i++ {
		if _, err := store.Get(ctx, headline.AddDate(0, 0, -i)); err != nil {
			t.Fatal(err)
		}
		if n := publishedCount(store); n > synth.ViewCacheCap {
			t.Fatalf("after %d dates %d snapshots are published, cap %d", i+1, n, synth.ViewCacheCap)
		}
	}
	if n := publishedCount(store); n != synth.ViewCacheCap {
		t.Errorf("%d snapshots published, want the cap of %d", n, synth.ViewCacheCap)
	}
	builds, hits := reg.Value("serve_snapshot_builds_total"), reg.Value("serve_snapshot_hits_total")
	if _, err := store.Get(ctx, headline); err != nil {
		t.Fatal(err)
	}
	if b, h := reg.Value("serve_snapshot_builds_total"), reg.Value("serve_snapshot_hits_total"); b != builds || h != hits+1 {
		t.Errorf("headline after %d other dates: %d builds, %d hits; want 0 and 1", 2*synth.ViewCacheCap, b-builds, h-hits)
	}
	// The first date after the headline was dropped and builds again.
	if _, err := store.Get(ctx, headline.AddDate(0, 0, -1)); err != nil {
		t.Fatal(err)
	}
	if b := reg.Value("serve_snapshot_builds_total"); b != builds+1 {
		t.Errorf("a dropped date was answered without a build")
	}
}

// publishedCount is the number of dates store has a published snapshot
// for, read from its /healthz detail: one "snapshot.<date>" key per
// known date, valued with the version once published.
func publishedCount(store *Store) int {
	n := 0
	for k, v := range store.Status() {
		if strings.HasPrefix(k, "snapshot.") && !strings.HasSuffix(k, ".backoff") && v != "building" {
			n++
		}
	}
	return n
}
