package serve

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"manrsmeter/internal/durable"
	"manrsmeter/internal/obsv"
)

// signatureChecks is how many RPKI signature checks this process has
// made, answered from a memo or not: any relying-party run adds to it.
func signatureChecks() int64 {
	return obsv.Default().Value("rpki_signature_checks_total", "memo", "hit") +
		obsv.Default().Value("rpki_signature_checks_total", "memo", "miss")
}

func openDurable(t *testing.T, dir string, reg *obsv.Registry) *durable.Store {
	t.Helper()
	d, err := durable.Open(dir, durable.Options{Registry: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPersistAndWarmStart is the durability acceptance path in one
// round trip: a store builds and archives a snapshot; a second store —
// a restarted daemon over the same directory — warm-starts from the
// archive and serves its first 200 without running a single build,
// with responses byte-identical (same ETag) to the built original.
func TestPersistAndWarmStart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	reg1 := obsv.NewRegistry()
	store1 := NewStore(testWorld(t), StoreOptions{
		Registry: reg1,
		Durable:  openDurable(t, dir, reg1),
		Logf:     t.Logf,
	})
	srv1 := NewServer(store1, Options{Registry: reg1})
	built := get(srv1.Handler(), "/v1/stats", nil)
	if built.Code != http.StatusOK {
		t.Fatalf("build: %d %s", built.Code, built.Body.String())
	}
	store1.WaitPersist()
	if reg1.Value("durable_persist_total") != 1 {
		t.Fatalf("durable_persist_total = %d, want 1", reg1.Value("durable_persist_total"))
	}

	// Restart: fresh store, fresh registry, same archive directory. From
	// here to the warm answer the relying party must not run: a restored
	// snapshot's aggregates come from the archive's own VRP index.
	checksBefore := signatureChecks()
	reg2 := obsv.NewRegistry()
	store2 := NewStore(testWorld(t), StoreOptions{
		Registry: reg2,
		Durable:  openDurable(t, dir, reg2),
		Logf:     t.Logf,
	})
	n, err := store2.WarmStart(ctx)
	if err != nil || n != 1 {
		t.Fatalf("WarmStart = %d, %v; want 1, nil", n, err)
	}
	if !store2.Ready() {
		t.Fatal("store not ready after warm start")
	}
	if reg2.Value("durable_load_total") != 1 {
		t.Errorf("durable_load_total = %d, want 1", reg2.Value("durable_load_total"))
	}

	srv2 := NewServer(store2, Options{Registry: reg2})
	warm := get(srv2.Handler(), "/v1/stats", nil)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm query: %d %s", warm.Code, warm.Body.String())
	}
	if builds := reg2.Value("serve_snapshot_builds_total"); builds != 0 {
		t.Fatalf("warm start ran %d builds, want 0", builds)
	}
	if n := signatureChecks() - checksBefore; n != 0 {
		t.Fatalf("warm start and its first answer checked %d RPKI signatures, want 0 (no relying-party run)", n)
	}
	if warm.Body.String() != built.Body.String() {
		t.Error("restored snapshot renders different /v1/stats bytes")
	}
	if warm.Header().Get("ETag") != built.Header().Get("ETag") {
		t.Errorf("ETag changed across persist/restore: %q != %q",
			warm.Header().Get("ETag"), built.Header().Get("ETag"))
	}

	// Deeper equivalence: a per-AS conformance answer must match too
	// (metrics were recomputed from the restored dataset, not stored).
	w := testWorld(t)
	member := w.MANRS.Members(store2.DefaultDate())[0]
	path := fmt.Sprintf("/v1/as/%d/conformance", member.ASN)
	a, b := get(srv1.Handler(), path, nil), get(srv2.Handler(), path, nil)
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("conformance: %d / %d", a.Code, b.Code)
	}
	if a.Body.String() != b.Body.String() {
		t.Error("restored snapshot renders different conformance bytes")
	}

	// Status surfaces the durable store alongside the snapshots.
	if _, ok := store2.Status()["durable.archives"]; !ok {
		t.Error("Status() missing durable details")
	}
}

// TestWarmStartIgnoresForeignWorlds plants an archive from a different
// world fingerprint: WarmStart must skip it rather than serve answers
// computed for another topology.
func TestWarmStartIgnoresForeignWorlds(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	reg := obsv.NewRegistry()
	d := openDurable(t, dir, reg)

	foreign := &durable.SnapshotData{
		Fingerprint: "wffffffffffffffff",
		Version:     "wffffffffffffffff@2022-05-01",
		Date:        time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC),
	}
	if err := d.Save(ctx, foreign); err != nil {
		t.Fatal(err)
	}

	store := NewStore(testWorld(t), StoreOptions{Registry: reg, Durable: d, Logf: t.Logf})
	if n, err := store.WarmStart(ctx); n != 0 || err != nil {
		t.Fatalf("WarmStart = %d, %v; want 0, nil", n, err)
	}
	if store.Ready() {
		t.Fatal("store ready off a foreign world's archive")
	}
}

// TestPersistFailureDoesNotAffectServing points the durable store at a
// filesystem that always fails writes: queries still succeed and the
// failure is only counted, never surfaced to clients.
func TestPersistFailureDoesNotAffectServing(t *testing.T) {
	reg := obsv.NewRegistry()
	ffs := durable.NewFaultFS(durable.OSFS{}, durable.FaultConfig{WriteEIO: 1})
	d, err := durable.Open(t.TempDir(), durable.Options{FS: ffs, Registry: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(testWorld(t), StoreOptions{Registry: reg, Durable: d, Logf: t.Logf})
	srv := NewServer(store, Options{Registry: reg})
	if rec := get(srv.Handler(), "/v1/stats", nil); rec.Code != http.StatusOK {
		t.Fatalf("query: %d", rec.Code)
	}
	store.WaitPersist()
	if reg.Value("durable_persist_errors_total") != 1 {
		t.Errorf("durable_persist_errors_total = %d, want 1", reg.Value("durable_persist_errors_total"))
	}
	if reg.Value("durable_persist_total") != 0 {
		t.Errorf("durable_persist_total = %d, want 0", reg.Value("durable_persist_total"))
	}
}
