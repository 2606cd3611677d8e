package synth

import (
	"slices"
	"testing"
	"time"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/rpki"
)

func mutateTestWorld(t *testing.T) *World {
	t.Helper()
	cfg := NewConfig(11)
	cfg.Tier1s, cfg.LargeISPs, cfg.MediumISPs, cfg.SmallASes, cfg.CDNs = 3, 3, 20, 120, 4
	cfg.MANRSSmall, cfg.MANRSMedium, cfg.MANRSLarge, cfg.MANRSCDNs = 15, 6, 2, 2
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// A fork absorbs mutations without the base world observing any of
// them: originations, ROAs, RP failures, and dataset caches all stay
// isolated, and the fingerprints diverge.
func TestForkIsolation(t *testing.T) {
	w := mutateTestWorld(t)
	asOf := w.Date(w.Config.EndYear)
	baseOrigs := w.OriginationsAt(asOf)
	baseVRPs, err := w.VRPsAt(asOf)
	if err != nil {
		t.Fatal(err)
	}
	baseFP := w.Fingerprint()

	f := w.Fork("iso-test")
	if f.Fingerprint() == baseFP {
		t.Fatal("forked fingerprint must diverge from base")
	}
	if f.Scenario() != "iso-test" {
		t.Fatalf("Scenario() = %q", f.Scenario())
	}

	victim := baseOrigs[0].Origin
	hijack := netx.MustParsePrefix("198.51.100.0/24")
	if err := f.AddOrigination(victim, hijack); err != nil {
		t.Fatal(err)
	}
	if err := f.PublishROA(rpki.RIPE, 0, []rpki.ROAPrefix{{Prefix: netx.MustParsePrefix("50.0.0.0/8"), MaxLength: 8}},
		w.Date(2011), w.Date(2040)); err != nil {
		t.Fatal(err)
	}
	f.FailRelyingParty(rpki.ARIN)
	f.SetROAVisibilityLag(time.Hour)
	if got := f.Mutations(); got != 4 {
		t.Fatalf("Mutations() = %d want 4", got)
	}

	// The fork sees its own changes...
	forkOrigs := f.OriginationsAt(asOf)
	if len(forkOrigs) != len(baseOrigs)+1 {
		t.Fatalf("fork originations %d, want base+1 = %d", len(forkOrigs), len(baseOrigs)+1)
	}
	if !slices.Contains(forkOrigs, astopo.Origination{Prefix: hijack, Origin: victim}) {
		t.Fatalf("fork originations lack the injected AS%d %s", victim, hijack)
	}
	forkVRPs, err := f.VRPsAt(asOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(forkVRPs) >= len(baseVRPs) {
		t.Fatalf("ARIN RP failure must shrink the VRP set: base %d, fork %d", len(baseVRPs), len(forkVRPs))
	}
	if got := f.FailedRPs(); len(got) != 1 || got[0] != rpki.ARIN {
		t.Fatalf("FailedRPs() = %v", got)
	}

	// ...and the base world sees none of them.
	if got := w.OriginationsAt(asOf); len(got) != len(baseOrigs) {
		t.Fatalf("base originations changed: %d -> %d", len(baseOrigs), len(got))
	}
	again, err := w.VRPsAt(asOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(baseVRPs) {
		t.Fatalf("base VRPs changed: %d -> %d", len(baseVRPs), len(again))
	}
	if w.Fingerprint() != baseFP {
		t.Fatal("base fingerprint changed")
	}
	if w.Mutations() != 0 || w.Scenario() != "" {
		t.Fatal("base world absorbed scenario state")
	}
}

// The fingerprint names archives on disk and snapshot versions on the
// wire, so its bytes are pinned to what the reflect-formatting
// Fingerprint of PR 18 and earlier produced: an archive written then
// must still warm-start. It is stored, not derived per call, so every
// mutation kind has to refresh it, and a reader racing a mutator sees
// the value before or after, never a torn one (run under -race).
func TestFingerprintIsPinnedAndFollowsMutations(t *testing.T) {
	w := mutateTestWorld(t)
	f := w.Fork("pin-test")
	pin := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s fingerprint = %s, want %s", what, got, want)
		}
	}
	pin("base", w.Fingerprint(), "w6a6b779a56e00399")
	pin("fork", f.Fingerprint(), "w8c7ceb604a05406c")
	f.FailRelyingParty(rpki.ARIN)
	pin("fork after one mutation", f.Fingerprint(), "w8c7cec604a05421f")
	pin("fork of the fork", f.Fork("pin-child").Fingerprint(), "w6a8b79309c284f0d")
	pin("base after forking", w.Fingerprint(), "w6a6b779a56e00399")

	asOf := w.Date(w.Config.EndYear)
	victim := w.OriginationsAt(asOf)[0].Origin
	hijack := netx.MustParsePrefix("198.51.100.0/24")
	kinds := []struct {
		name   string
		mutate func() error
	}{
		{"AddOrigination", func() error { return f.AddOrigination(victim, hijack) }},
		{"PublishROA", func() error {
			return f.PublishROA(rpki.RIPE, 0, []rpki.ROAPrefix{{Prefix: netx.MustParsePrefix("50.0.0.0/8"), MaxLength: 8}}, w.Date(2011), w.Date(2040))
		}},
		{"FailRelyingParty", func() error { f.FailRelyingParty(rpki.RIPE); return nil }},
		{"SetROAVisibilityLag", func() error { f.SetROAVisibilityLag(time.Hour); return nil }},
		{"RehomeROAs", func() error { _, err := f.RehomeROAs(rpki.APNIC, 0.5, w.Date(2011), w.Date(2020)); return err }},
	}
	seen := map[string]string{f.Fingerprint(): "fork"}
	for _, k := range kinds {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() { // a reader beside the mutator
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					if fp := f.Fingerprint(); len(fp) != 17 {
						t.Errorf("torn fingerprint %q", fp)
						return
					}
				}
			}
		}()
		err := k.mutate()
		close(stop)
		<-done
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		fp := f.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s left the fingerprint at %s's %s", k.name, prev, fp)
		}
		seen[fp] = k.name
		if fp != f.computeFingerprint() {
			t.Errorf("%s: stored fingerprint %s is stale, recomputed %s", k.name, fp, f.computeFingerprint())
		}
	}
}

// Datasets built on a fork must not leak into the base's date-keyed
// cache (and vice versa): the two worlds disagree about the same date.
func TestForkDatasetCacheIsolation(t *testing.T) {
	w := mutateTestWorld(t)
	asOf := w.Date(w.Config.EndYear)
	baseDS := datasetAt(t, w, asOf)

	f := w.Fork("cache-test")
	f.FailRelyingParty(rpki.RIPE)
	f.FailRelyingParty(rpki.ARIN)
	forkDS := datasetAt(t, f, asOf)
	if forkDS == baseDS {
		t.Fatal("fork returned the base's cached dataset")
	}
	if again := datasetAt(t, w, asOf); again != baseDS {
		t.Fatal("base cache entry evicted or replaced by fork build")
	}
}

// RehomeROAs moves the selected fraction onto the delegated CA and,
// with an expired CA window, drops exactly those VRPs.
func TestRehomeROAsExpiry(t *testing.T) {
	w := mutateTestWorld(t)
	asOf := w.Date(w.Config.EndYear)
	baseVRPs, err := w.VRPsAt(asOf)
	if err != nil {
		t.Fatal(err)
	}

	f := w.Fork("expire-test")
	// CA valid 2011→2020: fine when issued, expired at the 2022 eval.
	moved, err := f.RehomeROAs(rpki.RIPE, 0.5, w.Date(2011), w.Date(2020))
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("expected some RIPE ROAs to move")
	}
	forkVRPs, err := f.VRPsAt(asOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(forkVRPs) >= len(baseVRPs) {
		t.Fatalf("expired re-homed chains must drop VRPs: base %d, fork %d", len(baseVRPs), len(forkVRPs))
	}
	// A second fork with a still-valid CA keeps every VRP: re-homing
	// alone is behavior-preserving.
	g := w.Fork("rehome-valid")
	if _, err := g.RehomeROAs(rpki.RIPE, 0.5, w.Date(2011), w.Date(2040)); err != nil {
		t.Fatal(err)
	}
	keptVRPs, err := g.VRPsAt(asOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(keptVRPs) != len(baseVRPs) {
		t.Fatalf("valid re-homing changed VRP count: base %d, got %d", len(baseVRPs), len(keptVRPs))
	}
}
