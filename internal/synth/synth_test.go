package synth

import (
	"strings"
	"testing"
	"time"

	"manrsmeter/internal/manrs"
	"manrsmeter/internal/rov"
)

// testConfig returns a small world that still exercises every code path.
func testConfig(seed int64) Config {
	cfg := NewConfig(seed)
	cfg.Tier1s = 3
	cfg.LargeISPs = 2
	cfg.MediumISPs = 40
	cfg.SmallASes = 400
	cfg.CDNs = 6
	cfg.MANRSSmall = 40
	cfg.MANRSMedium = 14
	cfg.MANRSLarge = 2
	cfg.MANRSCDNs = 3
	return cfg
}

func generate(t *testing.T, seed int64) *World {
	t.Helper()
	w, err := Generate(testConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateBasicShape(t *testing.T) {
	w := generate(t, 1)
	if w.Graph.NumASes() < 450 {
		t.Errorf("ASes = %d", w.Graph.NumASes())
	}
	if w.MANRS.Len() < 50 {
		t.Errorf("MANRS members = %d", w.MANRS.Len())
	}
	if len(w.VantagePoints) == 0 {
		t.Fatal("no vantage points")
	}
	if w.Repo.NumROAs() == 0 {
		t.Fatal("no ROAs generated")
	}
	if w.IRRRegistry.NumRoutes() == 0 {
		t.Fatal("no IRR route objects generated")
	}
	if len(w.Policies) == 0 {
		t.Fatal("no filtering policies assigned")
	}
	// Orgs view covers every AS.
	total := 0
	for _, asns := range w.OrgASNs {
		total += len(asns)
	}
	if total != w.Graph.NumASes() {
		t.Errorf("org ASNs %d != graph ASes %d", total, w.Graph.NumASes())
	}
}

func TestGenerateConfigValidation(t *testing.T) {
	cfg := testConfig(1)
	cfg.Tier1s = 1
	if _, err := Generate(cfg); err == nil {
		t.Error("too-small config should fail")
	}
	cfg = testConfig(1)
	cfg.EndYear = cfg.StartYear - 1
	if _, err := Generate(cfg); err == nil {
		t.Error("inverted years should fail")
	}
}

func TestGenerateDeterministicMeasurements(t *testing.T) {
	w1 := generate(t, 42)
	w2 := generate(t, 42)
	// Ed25519 keys differ, but every measured quantity must match.
	if w1.Graph.NumASes() != w2.Graph.NumASes() {
		t.Error("AS counts differ across runs")
	}
	if w1.MANRS.Len() != w2.MANRS.Len() {
		t.Error("membership differs across runs")
	}
	if w1.IRRRegistry.NumRoutes() != w2.IRRRegistry.NumRoutes() {
		t.Error("IRR objects differ across runs")
	}
	if w1.Repo.NumROAs() != w2.Repo.NumROAs() {
		t.Error("ROA counts differ across runs")
	}
	d1, d2 := datasetAt(t, w1, w1.Date(2022)), datasetAt(t, w2, w2.Date(2022))
	if len(d1.PrefixOrigins) != len(d2.PrefixOrigins) || len(d1.Transits) != len(d2.Transits) {
		t.Errorf("datasets differ: %d/%d vs %d/%d",
			len(d1.PrefixOrigins), len(d1.Transits), len(d2.PrefixOrigins), len(d2.Transits))
	}
	for i := range d1.PrefixOrigins {
		if d1.PrefixOrigins[i] != d2.PrefixOrigins[i] {
			t.Fatalf("prefix origin %d differs: %+v vs %+v", i, d1.PrefixOrigins[i], d2.PrefixOrigins[i])
		}
	}
}

func TestVRPsGrowOverTime(t *testing.T) {
	w := generate(t, 7)
	var prev int
	for year := 2015; year <= 2022; year++ {
		vrps, err := w.VRPsAt(w.Date(year))
		if err != nil {
			t.Fatal(err)
		}
		if len(vrps) < prev {
			t.Errorf("VRPs shrank from %d to %d in %d", prev, len(vrps), year)
		}
		prev = len(vrps)
	}
	if prev == 0 {
		t.Fatal("no VRPs by 2022")
	}
	early, err := w.VRPsAt(w.Date(2015))
	if err != nil {
		t.Fatal(err)
	}
	if len(early) >= prev {
		t.Errorf("RPKI should grow: 2015=%d 2022=%d", len(early), prev)
	}
}

func TestMembershipGrowsOverTime(t *testing.T) {
	w := generate(t, 7)
	var prev int
	for year := 2015; year <= 2022; year++ {
		n := len(w.MANRS.Members(w.Date(year)))
		if n < prev {
			t.Errorf("membership shrank in %d", year)
		}
		prev = n
	}
	if prev != w.MANRS.Len() {
		t.Errorf("final membership %d != registry %d", prev, w.MANRS.Len())
	}
}

func TestDatasetAtProducesAllStatuses(t *testing.T) {
	w := generate(t, 3)
	ds := datasetAt(t, w, w.Date(2022))
	if len(ds.PrefixOrigins) < 100 {
		t.Fatalf("prefix origins = %d", len(ds.PrefixOrigins))
	}
	if len(ds.Transits) == 0 {
		t.Fatal("no transit rows")
	}
	var sawRPKI, sawIRR [4]bool
	for _, po := range ds.PrefixOrigins {
		sawRPKI[po.RPKI] = true
		sawIRR[po.IRR] = true
	}
	for _, s := range []rov.Status{rov.Valid, rov.NotFound} {
		if !sawRPKI[s] {
			t.Errorf("no prefix-origin with RPKI %v", s)
		}
		if !sawIRR[s] {
			t.Errorf("no prefix-origin with IRR %v", s)
		}
	}
	// The generated world includes misconfigurations and stale IRR
	// objects, so invalids must exist.
	if !sawRPKI[rov.InvalidASN] && !sawRPKI[rov.InvalidLength] {
		t.Error("no RPKI-invalid prefix origins generated")
	}
	if !sawIRR[rov.InvalidASN] && !sawIRR[rov.InvalidLength] {
		t.Error("no IRR-invalid prefix origins generated")
	}
	// Customer-learned transit rows exist (Action 1 denominator).
	cust := 0
	for _, tr := range ds.Transits {
		if tr.FromCustomer {
			cust++
		}
	}
	if cust == 0 {
		t.Error("no customer-learned transit rows")
	}
}

// Every §8.5 leak opens on or after February 10 of the final study
// year and closes before May 1, so February 1 and the headline
// announce exactly the table's rows outside churn, and 10 March more.
func TestSnapshotChurn(t *testing.T) {
	w := generate(t, 5)
	tab := w.originations()
	if len(tab.churn) == 0 {
		t.Skip("no churn windows at this seed/scale")
	}
	feb := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)
	may := w.Date(2022)
	for _, c := range tab.churn {
		if c.from.Before(feb.AddDate(0, 0, 9)) || !c.to.Before(may) || !c.from.Before(c.to) {
			t.Errorf("row %d (%v): window %v–%v outside 10 February–1 May", c.row, tab.rows[c.row], c.from, c.to)
		}
	}
	steady := len(tab.rows) - len(tab.churn)
	_, midChurn := snapshotDates(w)
	febCount, mayCount, midCount := len(w.OriginationsAt(feb)), len(w.OriginationsAt(may)), len(w.OriginationsAt(midChurn))
	if febCount != steady || mayCount != steady || midCount <= steady {
		t.Errorf("feb=%d may=%d mid-churn=%d originations; want %d, %d and more than %d", febCount, mayCount, midCount, steady, steady, steady)
	}
}

func TestCohortBiasInGeneratedData(t *testing.T) {
	// The calibrated rates must actually produce the paper's headline gap:
	// small MANRS ASes are far more likely to originate only RPKI-valid
	// prefixes than small non-MANRS ASes.
	w := generate(t, 11)
	ds := datasetAt(t, w, w.Date(2022))
	type agg struct{ allValid, total int }
	var member, non agg
	perAS := map[uint32]*struct{ valid, total int }{}
	for _, po := range ds.PrefixOrigins {
		e, ok := perAS[po.Origin]
		if !ok {
			e = &struct{ valid, total int }{}
			perAS[po.Origin] = e
		}
		e.total++
		if po.RPKI == rov.Valid {
			e.valid++
		}
	}
	for asn, e := range perAS {
		if manrs.ClassifySize(w.Graph.CustomerDegree(asn)) != manrs.Small {
			continue
		}
		a := &non
		if w.MANRS.IsMember(asn, w.Date(2022)) {
			a = &member
		}
		a.total++
		if e.valid == e.total {
			a.allValid++
		}
	}
	if member.total < 10 || non.total < 50 {
		t.Fatalf("cohorts too small: member=%d non=%d", member.total, non.total)
	}
	mRate := float64(member.allValid) / float64(member.total)
	nRate := float64(non.allValid) / float64(non.total)
	if mRate <= nRate {
		t.Errorf("small MANRS all-valid rate %.2f should exceed non-MANRS %.2f", mRate, nRate)
	}
}

// TestPreset pins the -scale vocabulary: each name is the world its
// commands generated before the presets were shared, and every other
// name fails with an error that lists the valid ones.
func TestPreset(t *testing.T) {
	small := NewConfig(5)
	small.Tier1s, small.LargeISPs, small.MediumISPs, small.SmallASes, small.CDNs = 3, 3, 60, 700, 8
	small.MANRSSmall, small.MANRSMedium, small.MANRSLarge, small.MANRSCDNs = 70, 20, 3, 4
	for _, tc := range []struct {
		name string
		want Config
	}{
		{"small", small},
		{"full", NewConfig(5)},
		{"large", NewLargeConfig(5)},
	} {
		got, err := Preset(tc.name, 5)
		if err != nil || got != tc.want {
			t.Errorf("Preset(%q) = %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
	}
	for _, name := range []string{"seed", "", "Large"} {
		_, err := Preset(name, 5)
		if err == nil {
			t.Errorf("Preset(%q) succeeded, want an error", name)
			continue
		}
		for _, valid := range []string{"small", "full", "large"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("Preset(%q) error %q does not name %q", name, err, valid)
			}
		}
	}
}
