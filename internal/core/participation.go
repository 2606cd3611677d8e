package core

import (
	"fmt"
	"sort"
	"strings"

	"manrsmeter/internal/manrs"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/rpki"
	"manrsmeter/internal/stats"
)

// Fig2Result is Figure 2: MANRS growth in organizations and ASes.
type Fig2Result struct {
	Years []int
	Orgs  []int
	ASes  []int
}

// Fig2Growth counts member organizations and ASes at May 1 of each study
// year.
func (p *Pipeline) Fig2Growth() *Fig2Result {
	res := &Fig2Result{}
	for y := p.World.Config.StartYear; y <= p.World.Config.EndYear; y++ {
		t := p.World.Date(y)
		res.Years = append(res.Years, y)
		res.Orgs = append(res.Orgs, len(p.World.MANRS.MemberOrgs(t)))
		res.ASes = append(res.ASes, len(p.World.MANRS.Members(t)))
	}
	return res
}

// Render writes the growth series as a table.
func (r *Fig2Result) Render() string {
	tb := stats.NewTable("year", "organizations", "ASes")
	for i, y := range r.Years {
		tb.AddRowf(y, r.Orgs[i], r.ASes[i])
	}
	return "Figure 2 — MANRS participant growth\n" + tb.String()
}

// Fig4Result is Figure 4a (member AS counts by RIR per year) and 4b
// (share of routed IPv4 space announced by members, by RIR, per year).
type Fig4Result struct {
	Years []int
	// ASes[year index][RIR] and SpacePct[year index][RIR].
	ASes     []map[rpki.RIR]int
	SpacePct []map[rpki.RIR]float64
}

// Fig4ByRIR computes both panels of Figure 4. A year's members count
// with the space they announce at the pipeline's date.
func (p *Pipeline) Fig4ByRIR() *Fig4Result {
	res := &Fig4Result{}
	origs := p.World.OriginationsAt(p.AsOf) // ascending by origin
	// Total routed space across everyone (the 4b denominator).
	var totalSpace netx.IPSet4
	for _, po := range p.ds.PrefixOrigins {
		totalSpace.AddPrefix(po.Prefix)
	}
	denom := float64(totalSpace.Size())

	for y := p.World.Config.StartYear; y <= p.World.Config.EndYear; y++ {
		t := p.World.Date(y)
		counts := make(map[rpki.RIR]int)
		sets := make(map[rpki.RIR]*netx.IPSet4)
		for _, part := range p.World.MANRS.Members(t) {
			a := p.World.Graph.AS(part.ASN)
			if a == nil {
				continue
			}
			counts[a.RIR]++
			s, ok := sets[a.RIR]
			if !ok {
				s = &netx.IPSet4{}
				sets[a.RIR] = s
			}
			i := sort.Search(len(origs), func(i int) bool { return origs[i].Origin >= part.ASN })
			for ; i < len(origs) && origs[i].Origin == part.ASN; i++ {
				s.AddPrefix(origs[i].Prefix)
			}
		}
		pcts := make(map[rpki.RIR]float64)
		for rir, s := range sets {
			if denom > 0 {
				pcts[rir] = 100 * float64(s.Size()) / denom
			}
		}
		res.Years = append(res.Years, y)
		res.ASes = append(res.ASes, counts)
		res.SpacePct = append(res.SpacePct, pcts)
	}
	return res
}

// Render writes both panels.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4a — MANRS ASes by RIR over time\n")
	hdr := []string{"year"}
	for _, rir := range rpki.AllRIRs {
		hdr = append(hdr, rir.String())
	}
	tb := stats.NewTable(hdr...)
	for i, y := range r.Years {
		row := []string{fmt.Sprint(y)}
		for _, rir := range rpki.AllRIRs {
			row = append(row, fmt.Sprint(r.ASes[i][rir]))
		}
		tb.AddRow(row...)
	}
	b.WriteString(tb.String())
	b.WriteString("\nFigure 4b — % of routed IPv4 space announced by MANRS ASes, by RIR\n")
	tb = stats.NewTable(hdr...)
	for i, y := range r.Years {
		row := []string{fmt.Sprint(y)}
		for _, rir := range rpki.AllRIRs {
			row = append(row, fmt.Sprintf("%.2f", r.SpacePct[i][rir]))
		}
		tb.AddRow(row...)
	}
	b.WriteString(tb.String())
	return b.String()
}

// Finding70Result summarizes registration completeness (Finding 7.0).
type Finding70Result struct {
	MemberOrgs          int
	AllASNsRegistered   int // orgs with every AS in MANRS
	AllSpaceViaMembers  int // orgs announcing space only through member ASes
	PartialSpace        int // orgs announcing some space from non-member ASes
	OnlyNonMemberSpace  int // ... of those, orgs announcing *only* from non-members
	QuiescentNonMembers int // unregistered ASes exist but announce nothing
	Reports             []manrs.CompletenessReport
}

// Finding70 runs the registration-completeness analysis.
func (p *Pipeline) Finding70() *Finding70Result {
	reports := manrs.RegistrationCompleteness(p.World.OrgASNs, p.ds.PrefixOrigins, p.World.MANRS, p.AsOf)
	res := &Finding70Result{MemberOrgs: len(reports), Reports: reports}
	for _, r := range reports {
		if r.AllASNsRegistered {
			res.AllASNsRegistered++
		}
		if r.AllSpaceViaMembers {
			res.AllSpaceViaMembers++
		} else {
			res.PartialSpace++
			if r.SpaceViaMembers == 0 && r.TotalSpace > 0 {
				res.OnlyNonMemberSpace++
			}
		}
		if r.QuiescentNonMembers {
			res.QuiescentNonMembers++
		}
	}
	return res
}

// Render writes the Finding 7.0 summary.
func (r *Finding70Result) Render() string {
	pct := func(n int) string {
		if r.MemberOrgs == 0 {
			return "n/a"
		}
		return stats.Pct(float64(n) / float64(r.MemberOrgs))
	}
	tb := stats.NewTable("metric", "orgs", "share")
	tb.AddRowf("MANRS organizations", r.MemberOrgs, "100%")
	tb.AddRowf("registered all their ASes", r.AllASNsRegistered, pct(r.AllASNsRegistered))
	tb.AddRowf("announce all space via member ASes", r.AllSpaceViaMembers, pct(r.AllSpaceViaMembers))
	tb.AddRowf("announce some space via non-members", r.PartialSpace, pct(r.PartialSpace))
	tb.AddRowf("announce only via non-members", r.OnlyNonMemberSpace, pct(r.OnlyNonMemberSpace))
	tb.AddRowf("unregistered ASes all quiescent", r.QuiescentNonMembers, pct(r.QuiescentNonMembers))
	return "Finding 7.0 — registration completeness\n" + tb.String()
}

// CohortDistribution is one cohort's per-AS metric sample for a CDF
// figure.
type CohortDistribution struct {
	Cohort Cohort
	Values []float64
	CDF    *stats.CDF
}

// CohortFigure is a six-cohort CDF figure (Figures 5, 7, 8).
type CohortFigure struct {
	Title   string
	XLabel  string
	Cohorts []CohortDistribution
}

// Render writes per-cohort summary rows plus a sampled CDF curve.
func (f *CohortFigure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	tb := stats.NewTable("cohort", "N", "min", "p25", "median", "p75", "max", "share at 0", "share at 100", "CDF 0→100")
	for _, c := range f.Cohorts {
		if c.CDF.N() == 0 {
			tb.AddRowf(c.Cohort.String(), 0, "-", "-", "-", "-", "-", "-", "-", "")
			continue
		}
		tb.AddRowf(c.Cohort.String(), c.CDF.N(),
			fmt.Sprintf("%.1f", c.CDF.Min()),
			fmt.Sprintf("%.1f", c.CDF.Quantile(0.25)),
			fmt.Sprintf("%.1f", c.CDF.Median()),
			fmt.Sprintf("%.1f", c.CDF.Quantile(0.75)),
			fmt.Sprintf("%.1f", c.CDF.Max()),
			stats.Pct(c.CDF.At(0)),
			stats.Pct(1-c.CDF.Below(100)),
			c.CDF.CurveSparkline(0, 100, 16),
		)
	}
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "x-axis: %s\n", f.XLabel)
	return b.String()
}

// buildCohortFigure groups a per-AS value into the six cohorts. ASes for
// which value returns (v, false) are skipped.
func (p *Pipeline) buildCohortFigure(title, xlabel string, asns []uint32, value func(asn uint32) (float64, bool)) *CohortFigure {
	byCohort := make(map[Cohort][]float64)
	for _, asn := range asns {
		v, ok := value(asn)
		if !ok {
			continue
		}
		c := p.CohortOf(asn)
		byCohort[c] = append(byCohort[c], v)
	}
	fig := &CohortFigure{Title: title, XLabel: xlabel}
	for _, c := range AllCohorts {
		vals := byCohort[c]
		sort.Float64s(vals)
		fig.Cohorts = append(fig.Cohorts, CohortDistribution{Cohort: c, Values: vals, CDF: stats.NewCDF(vals)})
	}
	return fig
}
