package manrs

import (
	"sort"
	"time"

	"manrsmeter/internal/ihr"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpki"
)

// Saturation is the RPKI saturation of a cohort (Eq. 7–8): the fraction
// of the cohort's routed IPv4 address space covered by ROAs.
type Saturation struct {
	RoutedSpace  uint64
	CoveredSpace uint64
}

// Ratio returns covered/routed, or 0 for an empty cohort.
func (s Saturation) Ratio() float64 {
	if s.RoutedSpace == 0 {
		return 0
	}
	return float64(s.CoveredSpace) / float64(s.RoutedSpace)
}

// RPKISaturation computes Eq. 7 and Eq. 8: the ROA-covered fraction of
// routed IPv4 space for MANRS member ASes and for all other ASes, from
// the routed prefix-origin pairs and the VRP set, as of time t (zero
// means current membership). order, when not nil, is the permutation
// the rows are read in; rows (and VRPs) read in prefix order build the
// address sets already merged, with no sort.
func RPKISaturation(origins []ihr.PrefixOrigin, order []int32, vrps []rpki.VRP, reg *Registry, t time.Time) (member, nonMember Saturation) {
	var vrpSpace netx.IPSet4
	for _, v := range vrps {
		vrpSpace.AddPrefix(v.Prefix)
	}
	var memberSet, nonSet netx.IPSet4
	add := func(po *ihr.PrefixOrigin) {
		if reg.IsMember(po.Origin, t) {
			memberSet.AddPrefix(po.Prefix)
		} else {
			nonSet.AddPrefix(po.Prefix)
		}
	}
	if order == nil {
		for i := range origins {
			add(&origins[i])
		}
	} else {
		for _, i := range order {
			add(&origins[i])
		}
	}
	member = Saturation{RoutedSpace: memberSet.Size(), CoveredSpace: memberSet.IntersectSize(&vrpSpace)}
	nonMember = Saturation{RoutedSpace: nonSet.Size(), CoveredSpace: nonSet.IntersectSize(&vrpSpace)}
	return member, nonMember
}

// PreferenceScore is Eq. 9 for one prefix-origin pair: the sum of MANRS
// transit hegemony scores minus the sum of non-MANRS transit hegemony
// scores. Positive values mean the announcement is more likely to
// traverse MANRS networks.
type PreferenceScore struct {
	Prefix netx.Prefix
	Origin uint32
	RPKI   rov.Status
	Score  float64
}

// PreferenceScores computes Eq. 9 for every prefix-origin pair in the
// transit dataset, as of membership time t (zero means current).
func PreferenceScores(transits []ihr.TransitRow, reg *Registry, t time.Time) []PreferenceScore {
	type key struct {
		prefix netx.Prefix
		origin uint32
	}
	acc := make(map[key]*PreferenceScore)
	var order []key
	for _, tr := range transits {
		k := key{tr.Prefix, tr.Origin}
		ps, ok := acc[k]
		if !ok {
			ps = &PreferenceScore{Prefix: tr.Prefix, Origin: tr.Origin, RPKI: tr.RPKI}
			acc[k] = ps
			order = append(order, k)
		}
		if reg.IsMember(tr.Transit, t) {
			ps.Score += tr.Hegemony
		} else {
			ps.Score -= tr.Hegemony
		}
	}
	out := make([]PreferenceScore, 0, len(order))
	for _, k := range order {
		out = append(out, *acc[k])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Origin != out[j].Origin {
			return out[i].Origin < out[j].Origin
		}
		return out[i].Prefix.Compare(out[j].Prefix) < 0
	})
	return out
}

// CompletenessReport is the Finding 7.0 analysis for one organization:
// how completely an organization's ASes and address space are enrolled.
type CompletenessReport struct {
	OrgID string
	// TotalASes / MemberASes count the organization's ASes and how many
	// are MANRS-registered.
	TotalASes  int
	MemberASes int
	// AllASNsRegistered is true when every AS the org owns is in MANRS.
	AllASNsRegistered bool
	// SpaceViaMembers / TotalSpace measure originated IPv4 space through
	// member vs all ASes.
	TotalSpace      uint64
	SpaceViaMembers uint64
	// AllSpaceViaMembers is true when the org announces IPv4 space only
	// through member ASes.
	AllSpaceViaMembers bool
	// QuiescentNonMembers is true when the org's non-member ASes announce
	// nothing (the "did not register their quiescent ASes" case).
	QuiescentNonMembers bool
}

// RegistrationCompleteness computes Finding 7.0 per MANRS organization:
// orgASNs maps each organization to all its ASNs (the as2org view),
// origins lists routed prefix-origin pairs. Only organizations with at
// least one member AS as of t are reported, sorted by org ID.
func RegistrationCompleteness(orgASNs map[string][]uint32, origins []ihr.PrefixOrigin, reg *Registry, t time.Time) []CompletenessReport {
	prefixesByAS := make(map[uint32][]netx.Prefix)
	for _, po := range origins {
		prefixesByAS[po.Origin] = append(prefixesByAS[po.Origin], po.Prefix)
	}
	var out []CompletenessReport
	for orgID, asns := range orgASNs {
		rep := CompletenessReport{OrgID: orgID, TotalASes: len(asns)}
		var total, member netx.IPSet4
		quiescent := true
		for _, asn := range asns {
			isMember := reg.IsMember(asn, t)
			if isMember {
				rep.MemberASes++
			}
			for _, p := range prefixesByAS[asn] {
				total.AddPrefix(p)
				if isMember {
					member.AddPrefix(p)
				} else {
					quiescent = false
				}
			}
		}
		if rep.MemberASes == 0 {
			continue
		}
		rep.AllASNsRegistered = rep.MemberASes == rep.TotalASes
		rep.TotalSpace = total.Size()
		rep.SpaceViaMembers = member.Size()
		rep.AllSpaceViaMembers = rep.SpaceViaMembers == rep.TotalSpace
		rep.QuiescentNonMembers = !rep.AllASNsRegistered && quiescent
		out = append(out, rep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].OrgID < out[j].OrgID })
	return out
}
