package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"manrsmeter/internal/manrs"
	"manrsmeter/internal/parallel"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/stats"
)

// originatingASNs returns every AS that originates at least one visible
// prefix.
func (p *Pipeline) originatingASNs() []uint32 {
	var out []uint32
	for asn, m := range p.metrics {
		if m.Originated > 0 {
			out = append(out, asn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Fig5aRPKIOrigination is Figure 5a: the CDF of each AS's percentage of
// originated RPKI-Valid prefixes (Formula 1), by cohort.
func (p *Pipeline) Fig5aRPKIOrigination() *CohortFigure {
	return p.buildCohortFigure(
		"Figure 5a — percent of originated RPKI Valid prefixes",
		"OG_RPKIvalid (Formula 1)",
		p.originatingASNs(),
		func(asn uint32) (float64, bool) {
			m := p.metrics[asn]
			if m == nil || m.Originated == 0 {
				return 0, false
			}
			return m.OGRPKIValid(), true
		})
}

// Fig5bIRROrigination is Figure 5b: Formula 2 by cohort.
func (p *Pipeline) Fig5bIRROrigination() *CohortFigure {
	return p.buildCohortFigure(
		"Figure 5b — percent of originated IRR Valid prefixes",
		"OG_IRRvalid (Formula 2)",
		p.originatingASNs(),
		func(asn uint32) (float64, bool) {
			m := p.metrics[asn]
			if m == nil || m.Originated == 0 {
				return 0, false
			}
			return m.OGIRRValid(), true
		})
}

// Action4Result is Findings 8.3/8.4: Action 4 conformance per program.
type Action4Result struct {
	Program    manrs.Program
	Members    int // member ASes in the program
	Trivial    int // originated nothing
	Conformant int // including trivial
}

// Action4 evaluates every MANRS member AS against its program's Action 4
// threshold.
func (p *Pipeline) Action4() []Action4Result {
	byProg := map[manrs.Program]*Action4Result{
		manrs.ProgramISP: {Program: manrs.ProgramISP},
		manrs.ProgramCDN: {Program: manrs.ProgramCDN},
	}
	for _, part := range p.World.MANRS.Members(p.AsOf) {
		res := byProg[part.Program]
		res.Members++
		m := p.metrics[part.ASN]
		if m == nil || m.Originated == 0 {
			res.Trivial++
			res.Conformant++
			continue
		}
		if manrs.Action4Conformant(m, part.Program) {
			res.Conformant++
		}
	}
	return []Action4Result{*byProg[manrs.ProgramISP], *byProg[manrs.ProgramCDN]}
}

// RenderAction4 writes Findings 8.3/8.4.
func RenderAction4(results []Action4Result) string {
	tb := stats.NewTable("program", "member ASes", "trivially conformant", "conformant", "share")
	for _, r := range results {
		share := "n/a"
		if r.Members > 0 {
			share = stats.Pct(float64(r.Conformant) / float64(r.Members))
		}
		tb.AddRowf(r.Program.String(), r.Members, r.Trivial, r.Conformant, share)
	}
	return "Findings 8.3/8.4 — Action 4 (prefix origination) conformance\n" + tb.String()
}

// Table1Row is one case-study organization of Table 1.
type Table1Row struct {
	Label string
	// RPKIInvalid counts unconformant prefix-origins that are RPKI
	// Invalid; IRRInvalid counts those that are RPKI NotFound + IRR
	// Invalid. Each splits into Sibling/C-P vs Unrelated by the
	// relationship between the announcing org and the registered origin.
	RPKIInvalid, RPKISibCP, RPKIUnrelated int
	IRRInvalid, IRRSibCP, IRRUnrelated    int
}

// Table1CaseStudies analyzes the most-unconformant member organizations:
// up to nCDN CDN-program orgs and nISP ISP-program orgs, ordered by their
// number of unconformant prefix-origins. For every unconformant
// prefix-origin it attributes the mismatching registered origin to
// Sibling/C-P (same org, or a direct customer/provider) or Unrelated.
func (p *Pipeline) Table1CaseStudies(ctx context.Context, nCDN, nISP int) ([]Table1Row, error) {
	view, err := p.World.At(ctx, p.AsOf, p.Workers)
	if err != nil {
		return nil, err
	}
	rpkiIx, irrIx := view.RPKI, view.IRR
	// Unconformant counts per org, split by program.
	type orgAgg struct {
		orgID   string
		program manrs.Program
		count   int
	}
	orgOf := func(asn uint32) (string, manrs.Program, bool) {
		part, ok := p.World.MANRS.Lookup(asn)
		if !ok || part.Joined.After(p.AsOf) {
			return "", 0, false
		}
		return part.OrgID, part.Program, true
	}
	aggs := map[string]*orgAgg{}
	for _, po := range p.ds.PrefixOrigins {
		if !manrs.Unconformant(po.RPKI, po.IRR) {
			continue
		}
		orgID, prog, ok := orgOf(po.Origin)
		if !ok {
			continue
		}
		a, ok := aggs[orgID]
		if !ok {
			a = &orgAgg{orgID: orgID, program: prog}
			aggs[orgID] = a
		}
		a.count++
	}
	var cdns, isps []*orgAgg
	for _, a := range aggs {
		if a.program == manrs.ProgramCDN {
			cdns = append(cdns, a)
		} else {
			isps = append(isps, a)
		}
	}
	byCount := func(s []*orgAgg) {
		sort.Slice(s, func(i, j int) bool {
			if s[i].count != s[j].count {
				return s[i].count > s[j].count
			}
			return s[i].orgID < s[j].orgID
		})
	}
	byCount(cdns)
	byCount(isps)
	if len(cdns) > nCDN {
		cdns = cdns[:nCDN]
	}
	if len(isps) > nISP {
		isps = isps[:nISP]
	}

	// related reports whether the registered origin is a sibling of, or
	// in a direct customer-provider relationship with, the announcing AS.
	related := func(announcer, registered uint32) bool {
		a := p.World.Graph.AS(announcer)
		if a == nil {
			return false
		}
		b := p.World.Graph.AS(registered)
		if b != nil && b.OrgID == a.OrgID {
			return true
		}
		for _, prov := range a.Providers {
			if prov == registered {
				return true
			}
		}
		for _, cust := range a.Customers {
			if cust == registered {
				return true
			}
		}
		return false
	}

	build := func(a *orgAgg, label string) Table1Row {
		row := Table1Row{Label: label}
		memberASNs := map[uint32]bool{}
		for _, asn := range p.World.OrgASNs[a.orgID] {
			memberASNs[asn] = true
		}
		for _, po := range p.ds.PrefixOrigins {
			if !memberASNs[po.Origin] || !manrs.Unconformant(po.RPKI, po.IRR) {
				continue
			}
			if po.RPKI.IsInvalid() {
				row.RPKIInvalid++
				if anyRelated(rpkiIx.Covering(po.Prefix), po.Origin, related) {
					row.RPKISibCP++
				} else {
					row.RPKIUnrelated++
				}
			} else { // RPKI NotFound + IRR Invalid
				row.IRRInvalid++
				if anyRelated(irrIx.Covering(po.Prefix), po.Origin, related) {
					row.IRRSibCP++
				} else {
					row.IRRUnrelated++
				}
			}
		}
		return row
	}
	var rows []Table1Row
	for i, a := range cdns {
		rows = append(rows, build(a, fmt.Sprintf("CDN%d", i+1)))
	}
	for i, a := range isps {
		rows = append(rows, build(a, fmt.Sprintf("ISP%d", i+1)))
	}
	return rows, nil
}

func anyRelated(auths []rov.Authorization, announcer uint32, related func(a, b uint32) bool) bool {
	for _, a := range auths {
		if a.ASN != announcer && related(announcer, a.ASN) {
			return true
		}
	}
	return false
}

// RenderTable1 writes Table 1.
func RenderTable1(rows []Table1Row) string {
	tb := stats.NewTable("org", "RPKI Invalid", "Sibling/C-P", "Unrelated",
		"IRR Invalid & RPKI NotFound", "Sibling/C-P", "Unrelated")
	for _, r := range rows {
		tb.AddRowf(r.Label, r.RPKIInvalid, r.RPKISibCP, r.RPKIUnrelated,
			r.IRRInvalid, r.IRRSibCP, r.IRRUnrelated)
	}
	return "Table 1 — unconformant prefix-origins of the case-study orgs\n" + tb.String()
}

// StabilityResult is the §8.5 conformance-stability analysis across
// weekly snapshots.
type StabilityResult struct {
	Weeks []time.Time
	// Per program: members always conformant, always unconformant, and
	// flapping across the snapshots.
	Always   map[manrs.Program]int
	Never    map[manrs.Program]int
	Flapping map[manrs.Program]int
	Members  map[manrs.Program]int
}

// Stability evaluates Action 4 conformance at weekly snapshots from
// February 1 to May 1 of the final study year (12 snapshots, like the
// paper). Once ctx is done no further weekly snapshots are built,
// in-flight builds stop dispatching work, and the cancellation cause is
// returned. Completed weeks stay in the World's views, so a retried run
// resumes from them.
func (p *Pipeline) Stability(ctx context.Context, weeks int) (*StabilityResult, error) {
	if weeks <= 0 {
		weeks = 12
	}
	year := p.World.Config.EndYear
	start := time.Date(year, 2, 1, 0, 0, 0, 0, time.UTC)
	end := p.World.Date(year)
	step := end.Sub(start) / time.Duration(weeks-1)

	res := &StabilityResult{
		Always:   map[manrs.Program]int{},
		Never:    map[manrs.Program]int{},
		Flapping: map[manrs.Program]int{},
		Members:  map[manrs.Program]int{},
	}
	members := p.World.MANRS.Members(end)

	// Each weekly snapshot is an independent dataset build over the
	// immutable World, so the weeks fan out across the worker pool; a
	// failed week cannot corrupt shared state (there is no snapshot to
	// restore), and per-week results land in per-index slots so the
	// flap sequences are in week order regardless of scheduling.
	weekConf := make([]map[uint32]bool, weeks)
	err := parallel.ForEachErrCtx(ctx, weeks, p.Workers, func(i int) error {
		t := start.Add(time.Duration(i) * step)
		view, err := p.World.At(ctx, t, 0)
		if err != nil {
			return err
		}
		ds, err := view.Dataset(ctx, 0)
		if err != nil {
			return err
		}
		ms := manrs.ComputeMetrics(ds)
		wc := make(map[uint32]bool, len(members))
		for _, part := range members {
			wc[part.ASN] = manrs.Action4Conformant(ms[part.ASN], part.Program)
		}
		weekConf[i] = wc
		return nil
	})
	if err != nil {
		return nil, err
	}

	conf := map[uint32][]bool{}
	for i := 0; i < weeks; i++ {
		res.Weeks = append(res.Weeks, start.Add(time.Duration(i)*step))
		for _, part := range members {
			conf[part.ASN] = append(conf[part.ASN], weekConf[i][part.ASN])
		}
	}

	for _, part := range members {
		res.Members[part.Program]++
		cs := conf[part.ASN]
		all, none := true, true
		for _, c := range cs {
			if c {
				none = false
			} else {
				all = false
			}
		}
		switch {
		case all:
			res.Always[part.Program]++
		case none:
			res.Never[part.Program]++
		default:
			res.Flapping[part.Program]++
		}
	}
	return res, nil
}

// Render writes the stability summary.
func (r *StabilityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Finding 8.7 — conformance stability over %d snapshots (%s … %s)\n",
		len(r.Weeks), r.Weeks[0].Format("2006-01-02"), r.Weeks[len(r.Weeks)-1].Format("2006-01-02"))
	tb := stats.NewTable("program", "members", "always conformant", "always unconformant", "flapping")
	for _, prog := range []manrs.Program{manrs.ProgramISP, manrs.ProgramCDN} {
		tb.AddRowf(prog.String(), r.Members[prog], r.Always[prog], r.Never[prog], r.Flapping[prog])
	}
	b.WriteString(tb.String())
	return b.String()
}

// Fig6Result is Figure 6: RPKI saturation over time for the member and
// non-member cohorts.
type Fig6Result struct {
	Years     []int
	Member    []manrs.Saturation
	NonMember []manrs.Saturation
}

// Fig6Saturation computes Eq. 7–8 per study year using the VRP set at
// each year and the membership as of that year. The yearly runs bypass
// the world's views: eight dates nobody asks for again must not push
// the headline out of a ViewCacheCap-entry cache. A done ctx stops the
// series at its next run, which checks nothing.
func (p *Pipeline) Fig6Saturation(ctx context.Context) (*Fig6Result, error) {
	res := &Fig6Result{}
	for y := p.World.Config.StartYear; y <= p.World.Config.EndYear; y++ {
		t := p.World.Date(y)
		vrps, err := p.World.VRPsAtCtx(ctx, t, p.Workers)
		if err != nil {
			return nil, err
		}
		member, non := manrs.RPKISaturation(p.ds.PrefixOrigins, nil, vrps, p.World.MANRS, t)
		res.Years = append(res.Years, y)
		res.Member = append(res.Member, member)
		res.NonMember = append(res.NonMember, non)
	}
	return res, nil
}

// Render writes the saturation series.
func (r *Fig6Result) Render() string {
	tb := stats.NewTable("year", "MANRS saturation", "non-MANRS saturation")
	for i, y := range r.Years {
		tb.AddRowf(y, stats.Pct(r.Member[i].Ratio()), stats.Pct(r.NonMember[i].Ratio()))
	}
	return "Figure 6 — % of routed IPv4 space covered by RPKI (Eq. 7–8)\n" + tb.String()
}
