package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"manrsmeter/internal/obsv"
	"manrsmeter/internal/synth"
)

// GET /v1/scenario/rp-failure must answer 200 with the degraded-health
// field set — graceful degradation is a successful response, never a
// 5xx. This is the serving-layer acceptance criterion for the
// adversarial scenario engine.
func TestScenarioRPFailureDegradesGracefully(t *testing.T) {
	_, srv, _ := newTestServer(t, Options{})
	h := srv.Handler()

	rec := get(h, "/v1/scenario/rp-failure", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", rec.Code, rec.Body.String())
	}
	resp := decode[ScenarioResponse](t, rec)
	if resp.Result == nil {
		t.Fatal("missing result")
	}
	if !resp.Result.Health.Degraded {
		t.Fatalf("health.degraded must be true: %+v", resp.Result.Health)
	}
	if resp.Result.Health.VRPsDropped == 0 {
		t.Fatal("RP failure must drop VRPs")
	}
	if resp.Result.Health.InvalidToValidFlips != 0 {
		t.Fatalf("invariant violated over HTTP: %+v", resp.Result.Health)
	}
	if !strings.Contains(resp.Rendered, "status=degraded") {
		t.Fatalf("rendered report must carry the degraded trailer:\n%s", resp.Rendered)
	}

	// Memoized on the snapshot: the second hit is served from the
	// response cache with a matching ETag (standard route contract).
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("missing ETag")
	}
	rec2 := get(h, "/v1/scenario/rp-failure", map[string]string{"If-None-Match": etag})
	if rec2.Code != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", rec2.Code)
	}
}

func TestScenarioIndexAndUnknown(t *testing.T) {
	_, srv, _ := newTestServer(t, Options{})
	h := srv.Handler()

	rec := get(h, "/v1/scenario", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("index status %d: %s", rec.Code, rec.Body.String())
	}
	idx := decode[ScenarioIndex](t, rec)
	if len(idx.Scenarios) != 5 {
		t.Fatalf("want 5 builtin scenarios, got %v", idx.Scenarios)
	}

	rec = get(h, "/v1/scenario/nope", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown scenario: status %d, want 404: %s", rec.Code, rec.Body.String())
	}
}

// The world's view cache keeps the headline however many other dates
// pass through it, so a scenario on a warm-started store's headline
// builds only its fork: the restored baseline is still the world's view.
func TestScenarioOnRestoredHeadlineBuildsOnlyTheFork(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	reg := obsv.NewRegistry()
	built := NewStore(coldWorld(t), StoreOptions{Registry: reg, Durable: openDurable(t, dir, reg)})
	if _, err := built.Get(ctx, built.DefaultDate()); err != nil {
		t.Fatal(err)
	}
	built.WaitPersist()

	w := coldWorld(t)
	reg = obsv.NewRegistry()
	store := NewStore(w, StoreOptions{Registry: reg, Durable: openDurable(t, dir, reg)})
	if n, err := store.WarmStart(ctx); err != nil || n != 1 {
		t.Fatalf("WarmStart = %d, %v; want 1, nil", n, err)
	}
	for i := 1; i <= synth.ViewCacheCap; i++ {
		if _, err := w.At(ctx, store.DefaultDate().AddDate(0, 0, -7*i), 1); err != nil {
			t.Fatal(err)
		}
	}
	before := datasetBuilds()
	if rec := get(NewServer(store, Options{Registry: reg}).Handler(), "/v1/scenario/rp-failure", nil); rec.Code != http.StatusOK {
		t.Fatalf("scenario: %d %s", rec.Code, rec.Body.String())
	}
	if n := datasetBuilds() - before; n != 1 {
		t.Errorf("scenario on the restored headline built %d datasets, want 1 (the fork's)", n)
	}
}
