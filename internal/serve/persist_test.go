package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"manrsmeter/internal/durable"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/synth"
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

// archiveDays saves a routeless archive of w for each of the n days
// before its headline, oldest first, and returns their dates. Restoring
// one needs no relying-party run and no dataset build.
func archiveDays(t *testing.T, d *durable.Store, w *synth.World, n int) []time.Time {
	t.Helper()
	headline := w.Date(w.Config.EndYear)
	dates := make([]time.Time, n)
	for i := range dates {
		dates[i] = headline.AddDate(0, 0, i-n)
		data := &durable.SnapshotData{Fingerprint: w.Fingerprint(), Version: versionAt(w, dates[i]), Date: dates[i]}
		if err := d.Save(context.Background(), data); err != nil {
			t.Fatal(err)
		}
	}
	return dates
}

// A date dropped past the publish cap is read back from its archive,
// not rebuilt.
func TestDroppedDateReloadsFromArchive(t *testing.T) {
	ctx := context.Background()
	reg := obsv.NewRegistry()
	d := openDurable(t, t.TempDir(), reg)
	w := coldWorld(t)
	dates := archiveDays(t, d, w, synth.ViewCacheCap+1)
	store := NewStore(w, StoreOptions{Registry: reg, Durable: d, Logf: t.Logf})
	for _, date := range dates {
		if _, err := store.Get(ctx, date); err != nil {
			t.Fatal(err)
		}
	}
	if store.publishedAt(dates[0]) != nil {
		t.Fatalf("%d dates published, the first still is; cap %d", len(dates), synth.ViewCacheCap)
	}
	snap, err := store.Get(ctx, dates[0])
	if err != nil {
		t.Fatal(err)
	}
	if snap.Source != "archive" || reg.Value("serve_snapshot_builds_total") != 0 {
		t.Errorf("dropped date came back from %q after %d builds, want the archive and 0", snap.Source, reg.Value("serve_snapshot_builds_total"))
	}
	if n := reg.Value("durable_load_total"); n != int64(len(dates))+1 {
		t.Errorf("durable_load_total = %d, want %d", n, len(dates)+1)
	}
}

// WarmStart reads no more archives than the store can keep published.
func TestWarmStartReadsAtMostTheCap(t *testing.T) {
	reg := obsv.NewRegistry()
	d := openDurable(t, t.TempDir(), reg)
	w := coldWorld(t)
	archiveDays(t, d, w, 20)
	store := NewStore(w, StoreOptions{Registry: reg, Durable: d, Logf: t.Logf})
	n, err := store.WarmStart(context.Background())
	if err != nil || n != synth.ViewCacheCap {
		t.Fatalf("WarmStart = %d, %v; want %d, nil", n, err, synth.ViewCacheCap)
	}
	if loads := reg.Value("durable_load_total"); loads > synth.ViewCacheCap {
		t.Errorf("WarmStart over 20 archives loaded %d, cap %d", loads, synth.ViewCacheCap)
	}
	if builds := reg.Value("serve_snapshot_builds_total"); builds != 0 {
		t.Errorf("WarmStart ran %d builds, want 0", builds)
	}
}

// TestColdBuildArchivesBeforePublish: a cold build writes its archive
// beside the snapshot's tail, not after the publish. Inside the build —
// after assemble has returned, before anything is published —
// WaitPersist already finds the archive on disk, byte for byte the
// encoding of the snapshot's dataset and registries. Restores, from the
// archive or from a peer, never write one.
func TestColdBuildArchivesBeforePublish(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	reg := obsv.NewRegistry()
	store := NewStore(testWorld(t), StoreOptions{Registry: reg, Durable: openDurable(t, dir, reg), Logf: t.Logf})
	var onDisk []string
	build := store.buildFn
	store.buildFn = func(ctx context.Context, date time.Time) (*Snapshot, error) {
		snap, err := build(ctx, date)
		store.WaitPersist()
		onDisk, _ = filepath.Glob(filepath.Join(dir, "snap-*.mds"))
		return snap, err
	}
	snap, err := store.Get(ctx, store.DefaultDate())
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != 1 {
		t.Fatalf("archives on disk before the publish: %v, want one", onDisk)
	}
	got, err := os.ReadFile(onDisk[0])
	if err != nil {
		t.Fatal(err)
	}
	ds := snap.Dataset()
	want := durable.Encode(&durable.SnapshotData{
		Fingerprint:   snap.World.Fingerprint(),
		Version:       snap.Version,
		Date:          snap.Date,
		PrefixOrigins: ds.PrefixOrigins,
		Transits:      ds.Transits,
		Visibility:    ds.Visibility,
		RPKI:          snap.RPKI.All(),
		IRR:           snap.IRR.All(),
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("archive on disk (%d bytes) differs from the encoding of the built snapshot (%d bytes)", len(got), len(want))
	}

	src := httptest.NewServer(NewServer(store, Options{Registry: reg}).Handler())
	defer src.Close()
	for name, archiveDir := range map[string]string{"archive": dir, "peer": t.TempDir()} {
		rreg := obsv.NewRegistry()
		restored := NewStore(testWorld(t), StoreOptions{
			Registry: rreg,
			Durable:  openDurable(t, archiveDir, rreg),
			Peers:    []string{src.URL},
		})
		snap, err := restored.Get(ctx, restored.DefaultDate())
		if err != nil {
			t.Fatalf("%s restore: %v", name, err)
		}
		restored.WaitPersist()
		if snap.Source != name {
			t.Errorf("restored from %q, want %q", snap.Source, name)
		}
		for _, m := range []string{"serve_snapshot_builds_total", "durable_persist_total", "durable_persist_skipped_total"} {
			if n := rreg.Value(m); n != 0 {
				t.Errorf("%s restore: %s = %d, want 0", name, m, n)
			}
		}
	}
	if n := reg.Value("durable_persist_total"); n != 1 {
		t.Errorf("durable_persist_total = %d, want 1 (the build only)", n)
	}
}

// An archive in the v2 format (the same body under version 2, sealed
// with fnv64a) is quarantined once and its date cold-builds; the next
// boot restores the build's own archive.
func TestV2ArchiveQuarantinedOnceThenColdBuilds(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	w := coldWorld(t)
	reg := obsv.NewRegistry()
	first := NewStore(w, StoreOptions{Registry: reg, Durable: openDurable(t, dir, reg)})
	if _, err := first.Get(ctx, first.DefaultDate()); err != nil {
		t.Fatal(err)
	}
	first.WaitPersist()
	files, _ := filepath.Glob(filepath.Join(dir, "snap-*.mds"))
	if len(files) != 1 {
		t.Fatalf("archives after the build: %v, want one", files)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(raw[len("MANRSNAP"):], 2) // the version follows the magic
	h := fnv.New64a()
	h.Write(raw[:len(raw)-8])
	binary.LittleEndian.PutUint64(raw[len(raw)-8:], h.Sum64())
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	for boot, want := range []string{"build", "archive"} {
		reg := obsv.NewRegistry()
		store := NewStore(w, StoreOptions{Registry: reg, Durable: openDurable(t, dir, reg), Logf: t.Logf})
		snap, err := store.Get(ctx, store.DefaultDate())
		if err != nil {
			t.Fatal(err)
		}
		store.WaitPersist()
		if snap.Source != want {
			t.Errorf("boot %d: snapshot from %q, want %q", boot, snap.Source, want)
		}
		if q, wantQ := reg.Value("durable_quarantine_total"), int64(1-boot); q != wantQ {
			t.Errorf("boot %d: durable_quarantine_total = %d, want %d", boot, q, wantQ)
		}
	}
}
