package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/stats"
)

// HijackImpactResult is the extension experiment from the paper's future
// work (§12: "compare the number of routing incidents before and after
// the launch of MANRS"): simulated prefix-origin hijacks against
// ROA-protected victims, measuring how far each spreads under three
// filtering regimes.
type HijackImpactResult struct {
	Incidents int
	// Spread is the per-incident fraction of ASes that accept the
	// hijacked route, per regime.
	WithPolicies     *stats.CDF // the world as measured (everyone's policy)
	WithoutMANRS     *stats.CDF // MANRS members' ROV disabled
	WithoutFiltering *stats.CDF // nobody filters
}

// HijackImpact simulates n origin hijacks: a random attacker announces a
// maximally-specific subprefix of a random ROA-protected victim prefix,
// which is RPKI-invalid by construction (wrong origin). Each incident
// propagates under the world's real policies, under the counterfactual
// where member ASes do not filter, and with no filtering anywhere. The
// gap between the first two distributions is MANRS's collective
// containment contribution.
func (p *Pipeline) HijackImpact(ctx context.Context, n int, seed int64) (*HijackImpactResult, error) {
	view, err := p.World.At(ctx, p.AsOf, p.Workers)
	if err != nil {
		return nil, err
	}
	rpkiIx := view.RPKI
	// Victim pool: visible prefix-origins that are RPKI Valid (so the
	// hijack is guaranteed Invalid for any other origin).
	var victims []struct {
		prefix netx.Prefix
		origin uint32
	}
	for _, po := range p.ds.PrefixOrigins {
		if po.RPKI == rov.Valid && po.Prefix.Is4() && po.Prefix.Bits() <= 24 {
			victims = append(victims, struct {
				prefix netx.Prefix
				origin uint32
			}{po.Prefix, po.Origin})
		}
	}
	if len(victims) == 0 {
		return nil, fmt.Errorf("core: no ROA-protected victims available")
	}
	asns := p.World.Graph.ASNs()
	rng := rand.New(rand.NewSource(seed))
	total := float64(p.World.Graph.NumASes())

	spread := func(prefix netx.Prefix, attacker uint32, filter astopo.ImportFilter) float64 {
		tree := p.World.Graph.Propagate(prefix, attacker, filter)
		return float64(tree.Len()) / total
	}

	res := &HijackImpactResult{Incidents: n}
	var with, withoutM, withoutAll []float64
	for i := 0; i < n; i++ {
		v := victims[rng.Intn(len(victims))]
		attacker := asns[rng.Intn(len(asns))]
		if attacker == v.origin {
			continue
		}
		// The hijacked announcement: the victim prefix itself (its status
		// against the attacker's origin is Invalid by construction).
		if !rpkiIx.Validate(v.prefix, attacker).IsInvalid() {
			continue // attacker happens to be authorized; skip
		}
		// dropIfROV drops the invalid announcement at every ROV-deploying
		// AS; with memberExempt, member ASes' ROV is switched off (the
		// counterfactual).
		dropIfROV := func(memberExempt bool) astopo.ImportFilter {
			return func(importer, neighbor uint32, prefix netx.Prefix, origin uint32) bool {
				pol, ok := p.World.Policies[importer]
				if !ok || !pol.DropRPKIInvalid {
					return true // no ROV: accept
				}
				if memberExempt && p.World.MANRS.IsMember(importer, p.AsOf) {
					return true
				}
				return false
			}
		}
		with = append(with, spread(v.prefix, attacker, dropIfROV(false)))
		withoutM = append(withoutM, spread(v.prefix, attacker, dropIfROV(true)))
		withoutAll = append(withoutAll, spread(v.prefix, attacker, nil))
	}
	sort.Float64s(with)
	res.WithPolicies = stats.NewCDF(with)
	res.WithoutMANRS = stats.NewCDF(withoutM)
	res.WithoutFiltering = stats.NewCDF(withoutAll)
	return res, nil
}

// Render writes the containment comparison.
func (r *HijackImpactResult) Render() string {
	tb := stats.NewTable("regime", "incidents", "median spread", "p90 spread", "max spread")
	row := func(name string, c *stats.CDF) {
		if c.N() == 0 {
			tb.AddRowf(name, 0, "-", "-", "-")
			return
		}
		tb.AddRowf(name, c.N(),
			stats.Pct(c.Median()), stats.Pct(c.Quantile(0.9)), stats.Pct(c.Max()))
	}
	row("real-world policies", r.WithPolicies)
	row("MANRS members' ROV disabled", r.WithoutMANRS)
	row("no filtering anywhere", r.WithoutFiltering)
	return "Extension (§12 future work) — hijack containment: fraction of ASes accepting a simulated origin hijack\n" + tb.String()
}

// Action3Result compares Action 3 (contact registration) conformance
// between members and non-members — an extension beyond the paper, which
// notes Action 3 is mandatory but measures only Actions 1 and 4.
type Action3Result struct {
	MemberConformant, MemberTotal       int
	NonMemberConformant, NonMemberTotal int
}

// Action3 evaluates every AS in the topology against the PeeringDB-style
// contact registry at the pipeline's measurement date.
func (p *Pipeline) Action3() *Action3Result {
	res := &Action3Result{}
	for _, asn := range p.World.Graph.ASNs() {
		conf := p.World.PeeringDB.Action3Conformant(asn, p.AsOf, 0)
		if p.World.MANRS.IsMember(asn, p.AsOf) {
			res.MemberTotal++
			if conf {
				res.MemberConformant++
			}
		} else {
			res.NonMemberTotal++
			if conf {
				res.NonMemberConformant++
			}
		}
	}
	return res
}

// Render writes the Action 3 comparison.
func (r *Action3Result) Render() string {
	tb := stats.NewTable("cohort", "conformant", "total", "share")
	row := func(name string, c, n int) {
		share := "n/a"
		if n > 0 {
			share = stats.Pct(float64(c) / float64(n))
		}
		tb.AddRowf(name, c, n, share)
	}
	row("MANRS members", r.MemberConformant, r.MemberTotal)
	row("non-members", r.NonMemberConformant, r.NonMemberTotal)
	return "Extension — Action 3 (contact registration) conformance\n" + tb.String()
}

// RouteLeakResult is the route-leak extension: simulated RFC 7908 leaks
// (an AS re-exporting a provider route upward), measuring how far each
// leak's path spreads and how often collector vantage points can detect
// it as a valley-free violation — the incident class the paper's §12
// future work targets ("compare the number of routing incidents").
type RouteLeakResult struct {
	Incidents int
	// Switched is the per-incident fraction of ASes whose best route
	// moves onto the leaked path.
	Switched *stats.CDF
	// Detected is the per-incident fraction of vantage points whose
	// observed path exposes the leak to DetectLeak.
	Detected *stats.CDF
	// LeakerIdentified counts incidents where every detecting vantage
	// point attributed the leak to the true leaker.
	LeakerIdentified int
}

// RouteLeaks simulates n leak incidents: a random multi-homed AS leaks a
// random visible prefix-origin it transits.
func (p *Pipeline) RouteLeaks(n int, seed int64) (*RouteLeakResult, error) {
	if len(p.ds.PrefixOrigins) == 0 {
		return nil, fmt.Errorf("core: no visible prefix-origins")
	}
	// Leak candidates: ASes with at least two providers (multi-homed) —
	// the classic type-1 leak setting.
	var candidates []uint32
	for _, asn := range p.World.Graph.ASNs() {
		if a := p.World.Graph.AS(asn); a != nil && len(a.Providers) >= 2 {
			candidates = append(candidates, asn)
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: no multi-homed leak candidates")
	}
	rng := rand.New(rand.NewSource(seed))
	total := float64(p.World.Graph.NumASes())

	res := &RouteLeakResult{Incidents: n}
	var switched, detected []float64
	for i := 0; i < n; i++ {
		po := p.ds.PrefixOrigins[rng.Intn(len(p.ds.PrefixOrigins))]
		leaker := candidates[rng.Intn(len(candidates))]
		if leaker == po.Origin {
			continue
		}
		normal, leaked := p.World.Graph.PropagateLeak(po.Prefix, po.Origin, leaker, nil)
		if leaked == nil {
			continue
		}
		// Count ASes whose best route class improves via the leak (the
		// leaked customer-class route displaces peer/provider routes).
		moved := 0
		for _, asn := range leaked.Reached() {
			li, _ := leaked.Info(asn)
			ni, had := normal.Info(asn)
			if !had || li.Class < ni.Class {
				moved++
			}
		}
		switched = append(switched, float64(moved)/total)

		// Detection: vantage points whose leaked-path view is classified.
		seen, caught, attributed := 0, 0, true
		for _, vp := range p.World.VantagePoints {
			path := leaked.PathFrom(vp)
			if path == nil {
				continue
			}
			seen++
			if leak, found := p.World.Graph.DetectLeak(path); found {
				caught++
				if leak.Leaker != leaker {
					attributed = false
				}
			}
		}
		if seen > 0 {
			detected = append(detected, float64(caught)/float64(seen))
			if caught > 0 && attributed {
				res.LeakerIdentified++
			}
		}
	}
	res.Switched = stats.NewCDF(switched)
	res.Detected = stats.NewCDF(detected)
	return res, nil
}

// Render writes the route-leak summary.
func (r *RouteLeakResult) Render() string {
	tb := stats.NewTable("metric", "median", "p90")
	if r.Switched.N() > 0 {
		tb.AddRowf("ASes switched onto the leak path", stats.Pct(r.Switched.Median()), stats.Pct(r.Switched.Quantile(0.9)))
	}
	if r.Detected.N() > 0 {
		tb.AddRowf("vantage points detecting the leak", stats.Pct(r.Detected.Median()), stats.Pct(r.Detected.Quantile(0.9)))
	}
	return fmt.Sprintf("Extension — route leaks (RFC 7908): %d incidents, leaker correctly attributed in %d\n%s",
		r.Switched.N(), r.LeakerIdentified, tb.String())
}
