package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"manrsmeter/internal/manrs"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/synth"
)

func testWorld(t *testing.T, seed int64) *Pipeline {
	t.Helper()
	cfg := synth.NewConfig(seed)
	cfg.Tier1s = 3
	cfg.LargeISPs = 3
	cfg.MediumISPs = 60
	cfg.SmallASes = 700
	cfg.CDNs = 8
	cfg.MANRSSmall = 70
	cfg.MANRSMedium = 20
	cfg.MANRSLarge = 3
	cfg.MANRSCDNs = 4
	// At this miniature scale the large cohorts hold a handful of ASes,
	// so the §9.4 effect (ROV concentrated in MANRS transits) would be at
	// the mercy of a few coin flips; make the policy split deterministic
	// in expectation so shape assertions test the mechanism, not sampling
	// noise.
	cfg.ROVDeploy = synth.CohortRates{
		Member:    [3]float64{0.05, 0.6, 1.0},
		NonMember: [3]float64{0.0, 0.03, 0.1},
	}
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(context.Background(), w, w.Date(w.Config.EndYear), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFig2GrowthMonotone(t *testing.T) {
	p := testWorld(t, 1)
	r := p.Fig2Growth()
	if len(r.Years) != 8 {
		t.Fatalf("years = %v", r.Years)
	}
	for i := 1; i < len(r.Years); i++ {
		if r.Orgs[i] < r.Orgs[i-1] || r.ASes[i] < r.ASes[i-1] {
			t.Errorf("growth not monotone at %d", r.Years[i])
		}
	}
	if r.ASes[len(r.ASes)-1] == 0 {
		t.Error("no members by the end year")
	}
	if !strings.Contains(r.Render(), "Figure 2") {
		t.Error("render header missing")
	}
}

func TestFig4ByRIR(t *testing.T) {
	p := testWorld(t, 1)
	r := p.Fig4ByRIR()
	last := r.ASes[len(r.ASes)-1]
	total := 0
	for _, n := range last {
		total += n
	}
	if total != len(p.World.MANRS.Members(p.AsOf)) {
		t.Errorf("per-RIR counts %d != total members %d", total, len(p.World.MANRS.Members(p.AsOf)))
	}
	// Space percentages are sane.
	for _, pcts := range r.SpacePct {
		sum := 0.0
		for _, v := range pcts {
			if v < 0 || v > 100 {
				t.Errorf("space pct out of range: %v", v)
			}
			sum += v
		}
		if sum > 100.0001 {
			t.Errorf("space percentages exceed 100: %v", pcts)
		}
	}
	if !strings.Contains(r.Render(), "Figure 4a") {
		t.Error("render missing 4a")
	}
}

func TestFinding70(t *testing.T) {
	p := testWorld(t, 1)
	r := p.Finding70()
	if r.MemberOrgs == 0 {
		t.Fatal("no member orgs")
	}
	if r.AllASNsRegistered > r.MemberOrgs || r.AllSpaceViaMembers > r.MemberOrgs {
		t.Errorf("counts exceed org total: %+v", r)
	}
	// The shape: most orgs register everything (paper: 70% / 82%).
	if float64(r.AllASNsRegistered)/float64(r.MemberOrgs) < 0.4 {
		t.Errorf("all-ASNs share suspiciously low: %d/%d", r.AllASNsRegistered, r.MemberOrgs)
	}
	if r.AllSpaceViaMembers < r.AllASNsRegistered {
		t.Errorf("space-complete orgs (%d) should be at least ASN-complete orgs (%d)",
			r.AllSpaceViaMembers, r.AllASNsRegistered)
	}
	if !strings.Contains(r.Render(), "Finding 7.0") {
		t.Error("render header missing")
	}
}

func TestFig5Shapes(t *testing.T) {
	p := testWorld(t, 1)
	a := p.Fig5aRPKIOrigination()
	if len(a.Cohorts) != 6 {
		t.Fatalf("cohorts = %d", len(a.Cohorts))
	}
	get := func(f *CohortFigure, c Cohort) CohortDistribution {
		for _, d := range f.Cohorts {
			if d.Cohort == c {
				return d
			}
		}
		t.Fatalf("cohort %v missing", c)
		return CohortDistribution{}
	}
	smallM := get(a, Cohort{manrs.Small, true})
	smallN := get(a, Cohort{manrs.Small, false})
	if smallM.CDF.N() < 20 || smallN.CDF.N() < 200 {
		t.Fatalf("cohort sizes: member=%d non=%d", smallM.CDF.N(), smallN.CDF.N())
	}
	// Finding 8.1 shape: small MANRS ASes are far more likely to be 100%
	// RPKI-valid.
	mAll := 1 - smallM.CDF.Below(100)
	nAll := 1 - smallN.CDF.Below(100)
	if mAll <= nAll {
		t.Errorf("Fig5a shape: small MANRS all-valid %.2f <= non-MANRS %.2f", mAll, nAll)
	}
	if !strings.Contains(a.Render(), "Figure 5a") {
		t.Error("render header")
	}
	// 5b renders too.
	b := p.Fig5bIRROrigination()
	if !strings.Contains(b.Render(), "Figure 5b") {
		t.Error("5b render header")
	}
}

func TestAction4(t *testing.T) {
	p := testWorld(t, 1)
	results := p.Action4()
	if len(results) != 2 {
		t.Fatalf("results = %v", results)
	}
	for _, r := range results {
		if r.Conformant > r.Members {
			t.Errorf("conformant > members: %+v", r)
		}
		if r.Members == 0 {
			t.Errorf("no members in program %v", r.Program)
		}
		// Shape: the overwhelming majority conformant (95% ISPs, 86% CDNs).
		if float64(r.Conformant)/float64(r.Members) < 0.6 {
			t.Errorf("conformance share too low: %+v", r)
		}
	}
	if !strings.Contains(RenderAction4(results), "Action 4") {
		t.Error("render header")
	}
}

func TestTable1(t *testing.T) {
	p := testWorld(t, 1)
	rows, err := p.Table1CaseStudies(context.Background(), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Skip("no unconformant member orgs at this seed")
	}
	sibTotal, unrelTotal := 0, 0
	for _, r := range rows {
		if r.RPKIInvalid != r.RPKISibCP+r.RPKIUnrelated {
			t.Errorf("RPKI split inconsistent: %+v", r)
		}
		if r.IRRInvalid != r.IRRSibCP+r.IRRUnrelated {
			t.Errorf("IRR split inconsistent: %+v", r)
		}
		sibTotal += r.RPKISibCP + r.IRRSibCP
		unrelTotal += r.RPKIUnrelated + r.IRRUnrelated
	}
	// Finding 8.5 shape: more than half of mismatching origins are
	// sibling or customer-provider related.
	if sibTotal+unrelTotal > 4 && sibTotal <= unrelTotal {
		t.Errorf("Table 1 shape: sibling/C-P %d <= unrelated %d", sibTotal, unrelTotal)
	}
	if !strings.Contains(RenderTable1(rows), "Table 1") {
		t.Error("render header")
	}
}

func TestStability(t *testing.T) {
	p := testWorld(t, 1)
	r, err := p.Stability(context.Background(), 4) // fewer snapshots to keep the test quick
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range []manrs.Program{manrs.ProgramISP, manrs.ProgramCDN} {
		if r.Always[prog]+r.Never[prog]+r.Flapping[prog] != r.Members[prog] {
			t.Errorf("%v buckets don't add up: %+v", prog, r)
		}
	}
	// Shape: stability dominates (most members always conformant).
	if r.Always[manrs.ProgramISP] <= r.Flapping[manrs.ProgramISP] {
		t.Errorf("ISP stability shape: always=%d flapping=%d",
			r.Always[manrs.ProgramISP], r.Flapping[manrs.ProgramISP])
	}
	if !strings.Contains(r.Render(), "8.7") {
		t.Error("render header")
	}
}

// The yearly relying-party runs are the only expensive part of Figure 6
// and they take the caller's context: once it is done, the series stops
// before its next run instead of validating the remaining years.
func TestFig6SaturationStopsWhenCancelled(t *testing.T) {
	p := testWorld(t, 4)
	checks := func() int64 {
		return obsv.Default().Value("rpki_signature_checks_total", "memo", "hit") +
			obsv.Default().Value("rpki_signature_checks_total", "memo", "miss")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := checks()
	if _, err := p.Fig6Saturation(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig6Saturation under a cancelled context: err = %v, want context.Canceled", err)
	}
	// Setting a relying party up re-checks its trust anchors; a run would
	// check every certificate and ROA.
	if n := checks() - before; n > int64(len(p.World.Anchors)) {
		t.Fatalf("a cancelled Fig6Saturation still checked %d signatures", n)
	}
}

func TestFig6SaturationShape(t *testing.T) {
	p := testWorld(t, 1)
	r, err := p.Fig6Saturation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := len(r.Years)
	if n != 8 {
		t.Fatalf("years = %v", r.Years)
	}
	// Saturation grows over time for both cohorts.
	if r.Member[n-1].Ratio() <= r.Member[0].Ratio() {
		t.Errorf("member saturation did not grow: %v → %v", r.Member[0].Ratio(), r.Member[n-1].Ratio())
	}
	// Finding 8.8 shape: members end substantially above non-members.
	if r.Member[n-1].Ratio() <= r.NonMember[n-1].Ratio() {
		t.Errorf("Fig6 shape: member %.2f <= non-member %.2f",
			r.Member[n-1].Ratio(), r.NonMember[n-1].Ratio())
	}
	if !strings.Contains(r.Render(), "Figure 6") {
		t.Error("render header")
	}
}

func TestFig7Fig8(t *testing.T) {
	p := testWorld(t, 1)
	a := p.Fig7aRPKIPropagation()
	b := p.Fig7bIRRPropagation()
	c := p.Fig8Unconformant()
	for _, f := range []*CohortFigure{a, b, c} {
		if len(f.Cohorts) != 6 {
			t.Fatalf("%s: cohorts = %d", f.Title, len(f.Cohorts))
		}
		total := 0
		for _, d := range f.Cohorts {
			total += d.CDF.N()
			for _, v := range d.Values {
				if v < 0 || v > 100 {
					t.Errorf("%s: value out of range: %g", f.Title, v)
				}
			}
		}
		if total == 0 {
			t.Errorf("%s: empty figure", f.Title)
		}
		if !strings.Contains(f.Render(), "Figure") {
			t.Error("render header")
		}
	}
}

func TestTable2(t *testing.T) {
	p := testWorld(t, 1)
	rows := p.Table2Action1()
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	totalMembers := 0
	for _, r := range rows {
		totalMembers += r.TotalMANRS
		if r.TotalConformant > r.TotalMANRS || r.TransitConformant > r.TotalTransit {
			t.Errorf("inconsistent row: %+v", r)
		}
	}
	if totalMembers != len(p.World.MANRS.Members(p.AsOf)) {
		t.Errorf("rows cover %d members, want %d", totalMembers, len(p.World.MANRS.Members(p.AsOf)))
	}
	if !strings.Contains(RenderTable2(rows), "Table 2") {
		t.Error("render header")
	}
}

func TestFig9PreferenceShape(t *testing.T) {
	p := testWorld(t, 1)
	r := p.Fig9Preference()
	valid, okV := r.ShareAboveZero(rov.Valid)
	notFound, okN := r.ShareAboveZero(rov.NotFound)
	invalid, okI := r.ShareAboveZero(rov.InvalidASN)
	if !okV || !okN {
		t.Fatalf("missing Valid/NotFound buckets: %+v", r.Counts)
	}
	if !okI {
		t.Skip("no visible RPKI-invalid announcements at this seed")
	}
	// Finding 9.4 shape: invalid announcements prefer MANRS transit far
	// less than valid/notfound ones.
	if invalid >= valid || invalid >= notFound {
		t.Errorf("Fig9 shape: invalid %.2f should be below valid %.2f and notfound %.2f",
			invalid, valid, notFound)
	}
	if !strings.Contains(r.Render(), "Figure 9") {
		t.Error("render header")
	}
	if _, ok := r.ShareAboveZero(rov.InvalidLength); ok {
		t.Error("invalid variants should be merged into InvalidASN bucket")
	}
}

func TestCohortString(t *testing.T) {
	if (Cohort{manrs.Small, true}).String() != "small MANRS" {
		t.Error("cohort string")
	}
	if (Cohort{manrs.Large, false}).String() != "large non-MANRS" {
		t.Error("cohort string")
	}
}

func TestHijackImpactExtension(t *testing.T) {
	p := testWorld(t, 1)
	r, err := p.HijackImpact(context.Background(), 40, 99)
	if err != nil {
		t.Fatal(err)
	}
	if r.WithPolicies.N() < 10 {
		t.Fatalf("too few incidents simulated: %d", r.WithPolicies.N())
	}
	// Filtering can only reduce spread: real ≤ counterfactual ≤ none,
	// in distribution (compare medians and means).
	if r.WithPolicies.Median() > r.WithoutFiltering.Median() {
		t.Errorf("policies median %.3f > unfiltered median %.3f",
			r.WithPolicies.Median(), r.WithoutFiltering.Median())
	}
	if r.WithoutMANRS.Median() > r.WithoutFiltering.Median() {
		t.Errorf("counterfactual median above unfiltered")
	}
	// MANRS members' ROV must contribute some containment on average.
	if r.WithPolicies.Quantile(0.9) > r.WithoutMANRS.Quantile(0.9) {
		t.Errorf("disabling member ROV should not reduce spread: p90 %.3f vs %.3f",
			r.WithPolicies.Quantile(0.9), r.WithoutMANRS.Quantile(0.9))
	}
	if !strings.Contains(r.Render(), "hijack containment") {
		t.Error("render header")
	}
}

func TestAction3Extension(t *testing.T) {
	p := testWorld(t, 1)
	r := p.Action3()
	if r.MemberTotal == 0 || r.NonMemberTotal == 0 {
		t.Fatalf("empty cohorts: %+v", r)
	}
	mShare := float64(r.MemberConformant) / float64(r.MemberTotal)
	nShare := float64(r.NonMemberConformant) / float64(r.NonMemberTotal)
	if mShare <= nShare {
		t.Errorf("member Action 3 share %.2f should exceed non-member %.2f", mShare, nShare)
	}
	if mShare < 0.7 {
		t.Errorf("member share suspiciously low: %.2f", mShare)
	}
	if !strings.Contains(r.Render(), "Action 3") {
		t.Error("render header")
	}
}

func TestRouteLeaksExtension(t *testing.T) {
	p := testWorld(t, 1)
	r, err := p.RouteLeaks(30, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Switched.N() < 10 {
		t.Fatalf("too few incidents: %d", r.Switched.N())
	}
	// Leaks must move at least some ASes in the median incident.
	if r.Switched.Quantile(0.9) <= 0 {
		t.Error("no incident moved any AS onto the leak path")
	}
	// Detection works on leaked paths: some vantage sees a violation in
	// most incidents.
	if r.Detected.N() == 0 || r.Detected.Quantile(0.9) <= 0 {
		t.Errorf("detection never fired: %+v", r.Detected)
	}
	if !strings.Contains(r.Render(), "route leaks") {
		t.Error("render header")
	}
}
