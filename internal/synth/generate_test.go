package synth

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"runtime"
	"slices"
	"testing"
	"time"

	"manrsmeter/internal/durable"
	"manrsmeter/internal/irr"
	"manrsmeter/internal/rpki"
)

// TestGenerateJoinsItsSigners: Generate signs while its serial tail runs
// and returns only after the last signature is set. Every published ROA
// then verifies under its anchor with crypto/ed25519 (the memo-less
// relying party, at a date inside every ROA's window, accepts all of
// them), and no goroutine Generate started is still running. Under
// -race, a signer still writing while the test reads is a reported race.
func TestGenerateJoinsItsSigners(t *testing.T) {
	before := runtime.NumGoroutine()
	w := generate(t, 1)
	for i, roa := range w.Repo.ROAs() {
		if len(roa.Signature) != ed25519.SignatureSize {
			t.Fatalf("ROA %d of %d unsigned when Generate returned", i, w.Repo.NumROAs())
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines outlived Generate: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	var anchors []*rpki.Certificate
	for _, r := range rpki.AllRIRs {
		anchors = append(anchors, w.Anchors[r].Cert)
	}
	rp, err := rpki.NewRelyingParty(anchors...)
	if err != nil {
		t.Fatal(err)
	}
	rp.Now = time.Date(2039, 6, 1, 0, 0, 0, 0, time.UTC)
	_, stats, err := rp.Run(context.Background(), w.Repo, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ROAsValid != w.Repo.NumROAs() || stats.ROAsRejected != 0 {
		t.Errorf("%d of %d ROAs verify (%d rejected), want all", stats.ROAsValid, w.Repo.NumROAs(), stats.ROAsRejected)
	}
}

// TestGenerateDigestIndependentOfProcs: the headline snapshot of worlds
// generated at GOMAXPROCS 1 and 2 archives to the same bytes. Signing
// runs beside the serial tail, and how the two interleave must not
// reach any measured quantity.
func TestGenerateDigestIndependentOfProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var sums []uint64
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		w := generate(t, 1)
		ctx := context.Background()
		view, err := w.At(ctx, w.Date(w.Config.EndYear), 1)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := view.Dataset(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, durable.Checksum(durable.Encode(&durable.SnapshotData{
			Fingerprint: w.Fingerprint(), Date: view.Date,
			PrefixOrigins: ds.PrefixOrigins, Transits: ds.Transits, Visibility: ds.Visibility,
			RPKI: view.RPKI.All(), IRR: view.IRR.All(),
		})))
	}
	if sums[0] != sums[1] {
		t.Errorf("headline digest %016x at GOMAXPROCS 1, %016x at 2", sums[0], sums[1])
	}
}

// TestIRRDumpRoundTrip: every database of a generated world loads back
// from its own dump with the same rows (prefix, origin, source, descr)
// and the same object count, although generation stores rows only.
func TestIRRDumpRoundTrip(t *testing.T) {
	w := generate(t, 1)
	for _, db := range w.IRRRegistry.Databases() {
		var buf bytes.Buffer
		if err := db.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		back := irr.NewDatabase(db.Name)
		if skipped, err := back.Load(&buf); err != nil || skipped != 0 {
			t.Fatalf("%s: Load skipped=%d err=%v", db.Name, skipped, err)
		}
		if !slices.Equal(back.Routes(), db.Routes()) {
			t.Errorf("%s: %d rows load back differently from the %d dumped", db.Name, back.NumRoutes(), db.NumRoutes())
		}
		if back.NumObjects() != db.NumObjects() || db.NumObjects() != db.NumRoutes() {
			t.Errorf("%s: %d objects load back from %d dumped over %d routes", db.Name, back.NumObjects(), db.NumObjects(), db.NumRoutes())
		}
	}
}
