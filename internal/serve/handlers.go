// handlers.go holds the query logic behind each /v1 route: pure
// functions from an immutable Snapshot to a JSON-encodable value plus
// an HTTP status. Everything here must be deterministic for a given
// snapshot version — the response cache and the ETag contract depend
// on byte-identical re-renders.

package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/core"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/manrs"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpki"
)

// httpError carries an HTTP status through the handler return path.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func errf(code int, format string, args ...any) error {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// statusKey renders a rov.Status as its stable JSON key.
func statusKey(s rov.Status) string {
	switch s {
	case rov.NotFound:
		return "not_found"
	case rov.Valid:
		return "valid"
	case rov.InvalidASN:
		return "invalid_asn"
	case rov.InvalidLength:
		return "invalid_length"
	default:
		return fmt.Sprintf("status_%d", uint8(s))
	}
}

// statusBreakdown renders a per-status count array as a JSON object.
func statusBreakdown(counts [4]int) map[string]int {
	out := make(map[string]int, 4)
	for st, n := range counts {
		out[statusKey(rov.Status(st))] = n
	}
	return out
}

// pctPtr converts a percentage to a JSON-friendly pointer: NaN (an
// undefined ratio, e.g. 0 originations) marshals as absent, not as the
// invalid JSON token NaN.
func pctPtr(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	v = math.Round(v*100) / 100
	return &v
}

// ASConformance is the /v1/as/{asn}/conformance response.
type ASConformance struct {
	ASN       uint32 `json:"asn"`
	AsOf      string `json:"as_of"`
	Snapshot  string `json:"snapshot"`
	SizeClass string `json:"size_class"`
	Degree    int    `json:"customer_degree"`
	OrgID     string `json:"org_id,omitempty"`
	Country   string `json:"country,omitempty"`
	RIR       string `json:"rir,omitempty"`

	Member  bool   `json:"manrs_member"`
	Program string `json:"program,omitempty"`
	Joined  string `json:"joined,omitempty"`

	Originated   int            `json:"originated"`
	OriginRPKI   map[string]int `json:"origin_rpki"`
	OriginIRR    map[string]int `json:"origin_irr"`
	Conformant   int            `json:"origin_conformant"`
	Unconformant int            `json:"origin_unconformant"`

	OGRPKIValidPct  *float64 `json:"og_rpki_valid_pct,omitempty"`
	OGIRRValidPct   *float64 `json:"og_irr_valid_pct,omitempty"`
	OGConformantPct *float64 `json:"og_conformant_pct,omitempty"`

	Propagated     int            `json:"propagated"`
	PropRPKI       map[string]int `json:"prop_rpki"`
	PropIRR        map[string]int `json:"prop_irr"`
	CustomerRoutes int            `json:"customer_routes"`

	Action1 ActionVerdict `json:"action1"`
	Action4 ActionVerdict `json:"action4"`
}

// ActionVerdict is one MANRS action evaluation.
type ActionVerdict struct {
	Conformant bool `json:"conformant"`
	// Trivial marks verdicts earned by inactivity (nothing originated
	// for Action 4, no customer routes propagated for Action 1).
	Trivial bool `json:"trivial"`
	// Threshold is the Action 4 conformance bar in percent; omitted
	// for Action 1, which tolerates zero unconformant customer routes.
	Threshold *float64 `json:"threshold_pct,omitempty"`
	// Unconformant counts the offending prefix-origins (Action 4: own
	// originations; Action 1: customer-learned propagations).
	Unconformant int `json:"unconformant"`
}

func asConformance(snap *Snapshot, asnText string) (*ASConformance, error) {
	asn64, err := strconv.ParseUint(asnText, 10, 32)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "bad ASN %q: must be a 32-bit integer", asnText)
	}
	asn := uint32(asn64)
	w := snap.World
	a := w.Graph.AS(asn)
	if a == nil {
		return nil, errf(http.StatusNotFound, "AS%d not in the measured topology", asn)
	}
	m := snap.Pipeline.Metrics()[asn] // nil when the AS is quiet: zero-valued answer
	if m == nil {
		m = &manrs.ASMetrics{ASN: asn}
	}
	out := &ASConformance{
		ASN:       asn,
		AsOf:      snap.Date.Format("2006-01-02"),
		Snapshot:  snap.Version,
		SizeClass: manrs.ClassifySize(w.Graph.CustomerDegree(asn)).String(),
		Degree:    w.Graph.CustomerDegree(asn),
		OrgID:     a.OrgID,
		Country:   a.CC,
		RIR:       a.RIR.String(),

		Originated:   m.Originated,
		OriginRPKI:   statusBreakdown(m.OriginRPKI),
		OriginIRR:    statusBreakdown(m.OriginIRR),
		Conformant:   m.OriginConform,
		Unconformant: m.OriginUnconf,

		OGRPKIValidPct:  pctPtr(m.OGRPKIValid()),
		OGIRRValidPct:   pctPtr(m.OGIRRValid()),
		OGConformantPct: pctPtr(m.OGConformant()),

		Propagated:     m.Propagated,
		PropRPKI:       statusBreakdown(m.PropRPKI),
		PropIRR:        statusBreakdown(m.PropIRR),
		CustomerRoutes: m.PropCustomer,
	}

	program := manrs.ProgramISP // non-members are scored against the ISP bar
	if part, ok := w.MANRS.Lookup(asn); ok && !part.Joined.After(snap.Date) {
		out.Member = true
		out.Program = part.Program.String()
		out.Joined = part.Joined.Format("2006-01-02")
		program = part.Program
	}
	threshold := manrs.Action4Threshold(program)
	out.Action4 = ActionVerdict{
		Conformant:   manrs.Action4Conformant(m, program),
		Trivial:      m.Originated == 0,
		Threshold:    &threshold,
		Unconformant: m.OriginUnconf,
	}
	out.Action1 = ActionVerdict{
		Conformant:   manrs.Action1Conformant(m),
		Trivial:      manrs.Action1Trivial(m),
		Unconformant: m.PropCustUnconf,
	}
	return out, nil
}

// PrefixInfo is the /v1/prefix/{p} response.
type PrefixInfo struct {
	Prefix   string `json:"prefix"`
	AsOf     string `json:"as_of"`
	Snapshot string `json:"snapshot"`

	// Originations are the routed (prefix, origin) rows for exactly
	// this prefix, with statuses and collector visibility.
	Originations []PrefixOrigination `json:"originations"`
	// ROAs and IRRRoutes are the covering authorizations, shortest
	// prefix first — what a relying party would consult.
	ROAs      []AuthorizationInfo `json:"roas"`
	IRRRoutes []AuthorizationInfo `json:"irr_routes"`
	// Validation classifies ?origin=ASN against both registries; only
	// present when the query names an origin.
	Validation *OriginValidation `json:"validation,omitempty"`
}

// PrefixOrigination is one routed row of the prefix-origin dataset.
type PrefixOrigination struct {
	Origin       uint32 `json:"origin"`
	RPKI         string `json:"rpki"`
	IRR          string `json:"irr"`
	Conformant   bool   `json:"conformant"`
	Unconformant bool   `json:"unconformant"`
	VantagePoint int    `json:"seen_by_vantage_points"`
}

// AuthorizationInfo is one VRP or IRR route object.
type AuthorizationInfo struct {
	Prefix    string `json:"prefix"`
	ASN       uint32 `json:"asn"`
	MaxLength int    `json:"max_length"`
}

// OriginValidation answers "would origin X announcing this prefix be
// conformant" for arbitrary pairs, not just routed ones.
type OriginValidation struct {
	Origin       uint32 `json:"origin"`
	RPKI         string `json:"rpki"`
	IRR          string `json:"irr"`
	Conformant   bool   `json:"conformant"`
	Unconformant bool   `json:"unconformant"`
}

func prefixInfo(snap *Snapshot, prefixText, originText string) (*PrefixInfo, error) {
	p, err := netx.ParsePrefix(prefixText)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "bad prefix %q: %v", prefixText, err)
	}
	ds := snap.Dataset()
	out := &PrefixInfo{
		Prefix:       p.String(),
		AsOf:         snap.Date.Format("2006-01-02"),
		Snapshot:     snap.Version,
		Originations: []PrefixOrigination{},
		ROAs:         []AuthorizationInfo{},
		IRRRoutes:    []AuthorizationInfo{},
	}
	for _, i := range snap.rowsFor(p) {
		po := ds.PrefixOrigins[i]
		out.Originations = append(out.Originations, PrefixOrigination{
			Origin:       po.Origin,
			RPKI:         statusKey(po.RPKI),
			IRR:          statusKey(po.IRR),
			Conformant:   manrs.Conformant(po.RPKI, po.IRR),
			Unconformant: manrs.Unconformant(po.RPKI, po.IRR),
			VantagePoint: ds.Visibility.Count(astopo.Origination{Prefix: po.Prefix, Origin: po.Origin}),
		})
	}
	sort.Slice(out.Originations, func(i, j int) bool {
		return out.Originations[i].Origin < out.Originations[j].Origin
	})
	for _, a := range snap.RPKI.Covering(p) {
		out.ROAs = append(out.ROAs, AuthorizationInfo{Prefix: a.Prefix.String(), ASN: a.ASN, MaxLength: a.MaxLength})
	}
	for _, a := range snap.IRR.Covering(p) {
		out.IRRRoutes = append(out.IRRRoutes, AuthorizationInfo{Prefix: a.Prefix.String(), ASN: a.ASN, MaxLength: a.MaxLength})
	}
	if originText != "" {
		o64, err := strconv.ParseUint(originText, 10, 32)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "bad origin %q: must be a 32-bit integer", originText)
		}
		rs := snap.RPKI.Validate(p, uint32(o64))
		is := snap.IRR.Validate(p, uint32(o64))
		out.Validation = &OriginValidation{
			Origin:       uint32(o64),
			RPKI:         statusKey(rs),
			IRR:          statusKey(is),
			Conformant:   manrs.Conformant(rs, is),
			Unconformant: manrs.Unconformant(rs, is),
		}
	}
	return out, nil
}

// EcosystemStats is the /v1/stats response, precomputed per snapshot.
type EcosystemStats struct {
	AsOf     string `json:"as_of"`
	Snapshot string `json:"snapshot"`

	ASes          int `json:"ases"`
	Members       int `json:"manrs_members"`
	PrefixOrigins int `json:"prefix_origins"`
	Transits      int `json:"transit_rows"`
	VRPs          int `json:"vrps"`
	IRRObjects    int `json:"irr_routes"`

	OriginRPKI   map[string]int `json:"origin_rpki"`
	OriginIRR    map[string]int `json:"origin_irr"`
	Conformant   int            `json:"conformant"`
	Unconformant int            `json:"unconformant"`
	Unregistered int            `json:"unregistered"`

	// RPKISaturationPct is Eq. 7–8 at the snapshot date: % of routed
	// IPv4 space covered by RPKI, member vs non-member cohorts.
	RPKISaturationPct struct {
		Member    *float64 `json:"member,omitempty"`
		NonMember *float64 `json:"non_member,omitempty"`
	} `json:"rpki_saturation_pct"`

	// SizeClasses breaks originating ASes down by (class, membership),
	// in legend order (small MANRS, small non-MANRS, ...).
	SizeClasses []SizeClassStats `json:"size_classes"`
}

// SizeClassStats is one cohort row of the /v1/stats breakdown.
type SizeClassStats struct {
	Class         string   `json:"class"`
	Member        bool     `json:"manrs_member"`
	ASes          int      `json:"ases"`
	Originated    int      `json:"originated"`
	RPKIValidPct  *float64 `json:"rpki_valid_pct,omitempty"`
	ConformantPct *float64 `json:"conformant_pct,omitempty"`
}

// The /v1/stats aggregates are precomputed when a snapshot is
// assembled, so the handler is a cache render: headlineStats fills the
// counts, and assemble's two halves add the rest (cohortStats from the
// per-AS metrics, rowStats from the rows in prefix order).

// headlineStats returns the aggregates that are plain counts.
func headlineStats(snap *Snapshot, ds *ihr.Dataset) *EcosystemStats {
	return &EcosystemStats{
		AsOf:          snap.Date.Format("2006-01-02"),
		Snapshot:      snap.Version,
		ASes:          snap.World.Graph.NumASes(),
		Members:       len(snap.World.MANRS.Members(snap.Date)),
		PrefixOrigins: len(ds.PrefixOrigins),
		Transits:      len(ds.Transits),
		VRPs:          snap.RPKI.Len(),
		IRRObjects:    snap.IRR.Len(),
	}
}

// rowStats fills the per-row aggregates: the status and conformance
// counts, and the RPKI saturation over the rows in snap's prefix order
// (so the address sets merge without a sort) against vrps, the VRPs the
// snapshot's RPKI index holds. Rows are counted per (RPKI, IRR) status
// pair, rov's four statuses each, and the pairs summed.
func rowStats(out *EcosystemStats, snap *Snapshot, ds *ihr.Dataset, vrps []rpki.VRP) {
	var pairs [4][4]int
	for _, po := range ds.PrefixOrigins {
		pairs[po.RPKI][po.IRR]++
	}
	out.OriginRPKI, out.OriginIRR = map[string]int{}, map[string]int{}
	for r := range pairs {
		for i, n := range pairs[r] {
			if n == 0 {
				continue
			}
			rs, is := rov.Status(r), rov.Status(i)
			out.OriginRPKI[statusKey(rs)] += n
			out.OriginIRR[statusKey(is)] += n
			switch {
			case manrs.Conformant(rs, is):
				out.Conformant += n
			case manrs.Unconformant(rs, is):
				out.Unconformant += n
			default:
				out.Unregistered += n
			}
		}
	}
	member, non := manrs.RPKISaturation(ds.PrefixOrigins, snap.byPrefix, vrps, snap.World.MANRS, snap.Date)
	out.RPKISaturationPct.Member = pctPtr(100 * member.Ratio())
	out.RPKISaturationPct.NonMember = pctPtr(100 * non.Ratio())
}

// cohortStats fills the size-class breakdown from the per-AS metrics.
func cohortStats(out *EcosystemStats, p *core.Pipeline) {
	type cohortAgg struct {
		ases, originated, rpkiValid, conformant int
	}
	agg := map[core.Cohort]*cohortAgg{}
	for asn, m := range p.Metrics() {
		if m.Originated == 0 {
			continue
		}
		c := p.CohortOf(asn)
		a := agg[c]
		if a == nil {
			a = &cohortAgg{}
			agg[c] = a
		}
		a.ases++
		a.originated += m.Originated
		a.rpkiValid += m.OriginRPKI[rov.Valid]
		a.conformant += m.OriginConform
	}
	for _, c := range core.AllCohorts {
		a := agg[c]
		if a == nil {
			a = &cohortAgg{}
		}
		row := SizeClassStats{
			Class:      c.Class.String(),
			Member:     c.Member,
			ASes:       a.ases,
			Originated: a.originated,
		}
		if a.originated > 0 {
			row.RPKIValidPct = pctPtr(100 * float64(a.rpkiValid) / float64(a.originated))
			row.ConformantPct = pctPtr(100 * float64(a.conformant) / float64(a.originated))
		}
		out.SizeClasses = append(out.SizeClasses, row)
	}
}

// ReportSection is the /v1/report/{section} response.
type ReportSection struct {
	Section  string `json:"section"`
	Title    string `json:"title"`
	AsOf     string `json:"as_of"`
	Snapshot string `json:"snapshot"`
	Rendered string `json:"rendered"`
}

// ReportIndex is the /v1/report response.
type ReportIndex struct {
	AsOf     string   `json:"as_of"`
	Snapshot string   `json:"snapshot"`
	Sections []string `json:"sections"`
}

// reportNames is the /v1/report index: the served sections, sorted.
var reportNames = func() []string {
	var names []string
	for _, sec := range core.Sections {
		if sec.Offer&core.Served != 0 {
			names = append(names, sec.Name)
		}
	}
	sort.Strings(names)
	return names
}()

func reportSection(ctx context.Context, snap *Snapshot, name string) (*ReportSection, error) {
	i := slices.IndexFunc(core.Sections, func(sec core.Section) bool {
		return sec.Name == name && sec.Offer&core.Served != 0
	})
	if i < 0 {
		return nil, errf(http.StatusNotFound, "unknown section %q (GET /v1/report lists them)", name)
	}
	sec := core.Sections[i]
	text, err := sec.Render(ctx, snap.Pipeline, 0)
	if err != nil {
		return nil, fmt.Errorf("render %s: %w", name, err)
	}
	return &ReportSection{
		Section:  sec.Name,
		Title:    sec.Title,
		AsOf:     snap.Date.Format("2006-01-02"),
		Snapshot: snap.Version,
		Rendered: text,
	}, nil
}
