package scenario

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/rpki"
	"manrsmeter/internal/synth"
)

func testWorld(t testing.TB, seed int64) *synth.World {
	t.Helper()
	cfg := synth.NewConfig(seed)
	cfg.Tier1s, cfg.LargeISPs, cfg.MediumISPs, cfg.SmallASes, cfg.CDNs = 3, 3, 30, 200, 4
	cfg.MANRSSmall, cfg.MANRSMedium, cfg.MANRSLarge, cfg.MANRSCDNs = 25, 8, 2, 2
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// Every builtin scenario must render byte-identically for a fixed seed
// regardless of worker count or which world instance (of the same
// config) it runs against — the acceptance bar for determinism.
func TestBuiltinsByteDeterministic(t *testing.T) {
	w1 := testWorld(t, 8)
	w2 := testWorld(t, 8)
	ctx := context.Background()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			sc1, err := Builtin(context.Background(), name, w1, w1.Date(w1.Config.EndYear))
			if err != nil {
				t.Fatal(err)
			}
			sc2, err := Builtin(context.Background(), name, w2, w2.Date(w2.Config.EndYear))
			if err != nil {
				t.Fatal(err)
			}
			if sc1.Encode() != sc2.Encode() {
				t.Fatalf("builtin derivation differs between same-config worlds:\n%s\nvs\n%s", sc1.Encode(), sc2.Encode())
			}
			r1, err := Run(ctx, w1, sc1, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Run(ctx, w2, sc2, Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if r1.Render() != r2.Render() {
				t.Fatalf("render differs across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s", r1.Render(), r2.Render())
			}
			if !strings.Contains(r1.Render(), "health: scenario="+name) {
				t.Fatalf("missing health trailer:\n%s", r1.Render())
			}
		})
	}
}

// The RP-failure scenario must degrade, not error: VRPs drop, verdicts
// move only down the lattice (never Invalid→Valid), and the health
// trailer reports it. Run concurrently with baseline queries over the
// same shared world to prove the fork isolation under -race.
func TestRPFailureChaos(t *testing.T) {
	w := testWorld(t, 8)
	ctx := context.Background()
	asOf := w.Date(w.Config.EndYear)
	sc, err := Builtin(context.Background(), NameRPFailure, w, asOf)
	if err != nil {
		t.Fatal(err)
	}

	const runs = 4
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(ctx, w, sc, Options{Workers: 2})
		}(i)
	}
	// Baseline readers hammer the shared world while scenarios fork it.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			view, err := w.At(ctx, asOf, 2)
			if err == nil {
				_, err = view.Dataset(ctx, 2)
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	first := results[0].Render()
	for i, r := range results {
		if r.Render() != first {
			t.Fatalf("run %d rendered differently under concurrency", i)
		}
		if !r.Health.Degraded {
			t.Fatal("RP failure must be reported as degraded")
		}
		if r.Health.VRPsDropped == 0 {
			t.Fatal("RP failure must drop VRPs")
		}
		if r.Trans.InvalidToValid != 0 {
			t.Fatalf("invariant violated: %d Invalid→Valid flips", r.Trans.InvalidToValid)
		}
		if r.Trans.InvalidToNotFound+r.Trans.ValidToNotFound == 0 {
			t.Fatal("RP failure must downgrade some verdicts to NotFound")
		}
		if !strings.Contains(r.Render(), "status=degraded") {
			t.Fatalf("health trailer must show degraded status:\n%s", r.Render())
		}
	}
	// The shared base world must be untouched.
	if w.Mutations() != 0 || w.Scenario() != "" {
		t.Fatal("base world absorbed scenario state")
	}
}

// Expired chains are removal-only too: the invariant holds and VRPs
// drop by roughly the re-homed fraction of the two targeted RIRs.
func TestExpiredCertsDegrades(t *testing.T) {
	w := testWorld(t, 8)
	sc, err := Builtin(context.Background(), NameExpiredCerts, w, w.Date(w.Config.EndYear))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), w, sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Health.VRPsDropped == 0 || !r.Health.Degraded {
		t.Fatalf("expired chains must drop VRPs: %+v", r.Health)
	}
	if r.Trans.InvalidToValid != 0 {
		t.Fatalf("invariant violated: %d Invalid→Valid flips", r.Trans.InvalidToValid)
	}
}

// AS0/wrong-origin hijack ROAs attack previously unprotected
// announcements: NotFound→Invalid transitions appear and measured
// unconformance rises.
func TestAS0HijackFlipsVerdicts(t *testing.T) {
	w := testWorld(t, 8)
	sc, err := Builtin(context.Background(), NameAS0Hijack, w, w.Date(w.Config.EndYear))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), w, sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Trans.NotFoundToInvalid == 0 {
		t.Fatalf("hijack ROAs must flip NotFound→Invalid: %+v", r.Trans)
	}
	if r.Scenario.Unconformant <= r.Baseline.Unconformant {
		t.Fatalf("unconformance must rise: %d -> %d", r.Baseline.Unconformant, r.Scenario.Unconformant)
	}
	if r.Scenario.VRPs <= r.Baseline.VRPs {
		t.Fatalf("hijack ROAs add VRPs: %d -> %d", r.Baseline.VRPs, r.Scenario.VRPs)
	}
}

// Anchor pairs: the inference runs, measures a nonzero AS population,
// and scores against ground truth with sane precision/recall.
func TestAnchorPairInference(t *testing.T) {
	w := testWorld(t, 8)
	sc, err := Builtin(context.Background(), NameAnchorPairs, w, w.Date(w.Config.EndYear))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), w, sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := r.Anchor
	if a == nil || a.Pairs == 0 {
		t.Fatalf("anchor report missing: %+v", r)
	}
	if a.Measured == 0 {
		t.Fatal("no ASes measured")
	}
	if a.Precision < 0 || a.Precision > 1 || a.Recall < 0 || a.Recall > 1 {
		t.Fatalf("precision/recall out of range: %+v", a)
	}
	if a.TruePos+a.FalseNeg != a.Truth {
		t.Fatalf("confusion counts inconsistent: %+v", a)
	}
	// The injected announcements exist only in the fork.
	if r.Trans.Added != 2*a.Pairs {
		t.Fatalf("expected %d injected originations, got %d", 2*a.Pairs, r.Trans.Added)
	}
}

// The ROA-delay scenario reports its lag in the health trailer and
// never upgrades a verdict.
func TestROADelay(t *testing.T) {
	w := testWorld(t, 8)
	sc, err := Builtin(context.Background(), NameROADelay, w, w.Date(w.Config.EndYear))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), w, sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Health.Degraded || r.Health.ROALag == "" {
		t.Fatalf("lag must mark the run degraded: %+v", r.Health)
	}
	if r.Trans.InvalidToValid != 0 {
		t.Fatalf("invariant violated: %+v", r.Trans)
	}
	if r.Scenario.VRPs > r.Baseline.VRPs {
		t.Fatalf("a visibility lag cannot add VRPs: %d -> %d", r.Baseline.VRPs, r.Scenario.VRPs)
	}
}

// Both encodings round-trip every builtin scenario exactly.
func TestEncodingRoundTrip(t *testing.T) {
	w := testWorld(t, 8)
	date := w.Date(w.Config.EndYear)
	scs := []*Scenario{
		{Name: "manual", Events: []Event{
			{Op: OpAnnounce, ASN: 64500, Prefix: mustPfx(t, "16.1.0.0/16")},
			{Op: OpHijackROA, ASN: 0, Prefix: mustPfx(t, "16.1.0.0/16"), MaxLen: 24, FromYear: 2012, ToYear: 2030},
			{Op: OpExpire, RIR: rpki.ARIN, Frac: 0.25, Skew: 48 * time.Hour},
			{Op: OpRPFail, RIR: rpki.LACNIC},
			{Op: OpROADelay, Lag: 90 * time.Minute},
			{Op: OpAnchorPair, ASN: 64501, Prefix: mustPfx(t, "24.0.0.0/20"), Invalid: mustPfx(t, "24.0.16.0/20")},
		}},
	}
	for _, name := range Names() {
		sc, err := Builtin(context.Background(), name, w, date)
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, sc)
	}
	for _, sc := range scs {
		text := sc.Encode()
		back, err := Decode([]byte(text))
		if err != nil {
			t.Fatalf("%s: text decode: %v\n%s", sc.Name, err, text)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("%s: text round trip drifted:\n%#v\nvs\n%#v", sc.Name, sc, back)
		}
		js, err := sc.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err = Decode(js)
		if err != nil {
			t.Fatalf("%s: JSON decode: %v\n%s", sc.Name, err, js)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("%s: JSON round trip drifted:\n%#v\nvs\n%#v", sc.Name, sc, back)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []string{
		"bogus-op asn=1",
		"announce asn=0 prefix=10.0.0.0/8",
		"announce prefix=10.0.0.0/8",
		"announce asn=1 prefix=banana",
		"hijack-roa prefix=10.0.0.0/8 maxlen=40",
		"hijack-roa prefix=10.0.0.0/8 from=1200",
		"expire rir=NOPE frac=0.5",
		"expire rir=RIPE frac=1.5",
		"roa-delay lag=-5m",
		"anchor-pair asn=1 valid=10.0.0.0/8 invalid=10.0.0.0/8",
		"announce asn=1 prefix=10.0.0.0/8 junk",
		`{"events":[{"op":"rp-fail","rir":"XX"}]}`,
		`{"events":[{"op":"announce","asn":1,"prefix":"zz"}]}`,
		`{"nope":true}`,
	}
	for _, c := range cases {
		if _, err := Decode([]byte(c)); err == nil {
			t.Errorf("input %q must fail to decode", c)
		}
	}
	// Comments and blank lines are fine.
	sc, err := Decode([]byte("# a comment\n\nscenario demo\nrp-fail rir=RIPE\n"))
	if err != nil || sc.Name != "demo" || len(sc.Events) != 1 {
		t.Fatalf("comment handling: %v %+v", err, sc)
	}
}

func mustPfx(t *testing.T, s string) netx.Prefix {
	t.Helper()
	p, err := netx.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
