package manrs

import (
	"math"

	"manrsmeter/internal/ihr"
	"manrsmeter/internal/rov"
)

// Conformant reports whether a prefix-origin with the given statuses is
// MANRS-conformant (§6.4): RPKI Valid, or IRR Valid, or IRR
// Invalid-length (IRR has no max-length attribute, so de-aggregation
// below a registered route is tolerated).
func Conformant(rpkiS, irrS rov.Status) bool {
	return rpkiS == rov.Valid || irrS == rov.Valid || irrS == rov.InvalidLength
}

// Unconformant reports whether a prefix-origin is MANRS-unconformant
// (§6.4): RPKI Invalid (either variant), or RPKI NotFound with IRR
// Invalid — except when the pair is already Conformant through the other
// registry (a valid IRR object satisfies Action 4 even when a stale ROA
// disagrees). Pairs unregistered everywhere are neither conformant nor
// unconformant.
func Unconformant(rpkiS, irrS rov.Status) bool {
	if Conformant(rpkiS, irrS) {
		return false
	}
	return rpkiS.IsInvalid() || (rpkiS == rov.NotFound && irrS == rov.InvalidASN)
}

// ASMetrics aggregates one AS's origination and propagation behavior
// from the IHR datasets — the inputs to Formulas 1–6.
type ASMetrics struct {
	ASN uint32

	// Origination counts (prefix-origin dataset).
	Originated    int
	OriginRPKI    [4]int // indexed by rov.Status
	OriginIRR     [4]int
	OriginConform int
	OriginUnconf  int

	// Propagation counts (transit dataset).
	Propagated     int
	PropRPKI       [4]int
	PropIRR        [4]int
	PropCustomer   int // propagated announcements learned from customers
	PropCustUnconf int // ... of those, MANRS-unconformant
}

// OGRPKIValid is Formula 1: % of originated prefixes that are RPKI Valid.
// NaN when the AS originates nothing.
func (m *ASMetrics) OGRPKIValid() float64 {
	return pct(m.OriginRPKI[rov.Valid], m.Originated)
}

// OGIRRValid is Formula 2: % of originated prefixes that are IRR Valid.
func (m *ASMetrics) OGIRRValid() float64 {
	return pct(m.OriginIRR[rov.Valid], m.Originated)
}

// OGConformant is Formula 3: % of originated prefixes that are
// MANRS-conformant.
func (m *ASMetrics) OGConformant() float64 {
	return pct(m.OriginConform, m.Originated)
}

// PGRPKIInvalid is Formula 4: % of propagated prefixes that are RPKI
// Invalid or Invalid-length.
func (m *ASMetrics) PGRPKIInvalid() float64 {
	return pct(m.PropRPKI[rov.InvalidASN]+m.PropRPKI[rov.InvalidLength], m.Propagated)
}

// PGIRRInvalid is Formula 5: % of propagated prefixes that are IRR
// Invalid (wrong origin; invalid-length is tolerated, §3).
func (m *ASMetrics) PGIRRInvalid() float64 {
	return pct(m.PropIRR[rov.InvalidASN], m.Propagated)
}

// PGUnconformant is Formula 6: % of customer-learned propagated prefixes
// that are MANRS-unconformant.
func (m *ASMetrics) PGUnconformant() float64 {
	return pct(m.PropCustUnconf, m.PropCustomer)
}

func pct(n, d int) float64 {
	if d == 0 {
		return math.NaN()
	}
	return 100 * float64(n) / float64(d)
}

// ComputeMetrics aggregates the dataset into per-AS metrics. Every AS
// that originates or transits at least one visible prefix gets an entry.
// Prefix-origin rows come sorted by origin, so a run of rows from one AS
// looks its entry up once, in a map sized for the origins those runs
// count.
func ComputeMetrics(ds *ihr.Dataset) map[uint32]*ASMetrics {
	origins := 0
	for i := range ds.PrefixOrigins {
		if i == 0 || ds.PrefixOrigins[i].Origin != ds.PrefixOrigins[i-1].Origin {
			origins++
		}
	}
	out := make(map[uint32]*ASMetrics, origins)
	get := func(asn uint32) *ASMetrics {
		m, ok := out[asn]
		if !ok {
			m = &ASMetrics{ASN: asn}
			out[asn] = m
		}
		return m
	}
	var m *ASMetrics
	for _, po := range ds.PrefixOrigins {
		if m == nil || m.ASN != po.Origin {
			m = get(po.Origin)
		}
		m.Originated++
		m.OriginRPKI[po.RPKI]++
		m.OriginIRR[po.IRR]++
		if Conformant(po.RPKI, po.IRR) {
			m.OriginConform++
		}
		if Unconformant(po.RPKI, po.IRR) {
			m.OriginUnconf++
		}
	}
	for _, tr := range ds.Transits {
		if m == nil || m.ASN != tr.Transit {
			m = get(tr.Transit)
		}
		m.Propagated++
		m.PropRPKI[tr.RPKI]++
		m.PropIRR[tr.IRR]++
		if tr.FromCustomer {
			m.PropCustomer++
			if Unconformant(tr.RPKI, tr.IRR) {
				m.PropCustUnconf++
			}
		}
	}
	return out
}

// Action 4 thresholds (§8.3): the ISP program requires ≥90% of
// originated prefixes IRR/RPKI valid; the CDN program requires 100%.
const (
	ISPAction4Threshold = 90.0
	CDNAction4Threshold = 100.0
)

// Action4Threshold returns the program's conformance threshold, in
// percent of originated prefixes.
func Action4Threshold(program Program) float64 {
	if program == ProgramCDN {
		return CDNAction4Threshold
	}
	return ISPAction4Threshold
}

// Action4Conformant evaluates MANRS Action 4 for an AS in the given
// program. An AS originating nothing is trivially conformant (§8.3).
func Action4Conformant(m *ASMetrics, program Program) bool {
	if m == nil || m.Originated == 0 {
		return true
	}
	return m.OGConformant() >= Action4Threshold(program)
}

// Action1Conformant evaluates MANRS Action 1 (§9.3): fully conformant
// when no customer-learned propagated announcement is
// MANRS-unconformant; trivially conformant when the AS propagates no
// customer announcements at all.
func Action1Conformant(m *ASMetrics) bool {
	return m == nil || m.PropCustUnconf == 0
}

// Action1Trivial reports whether the AS propagated no customer
// announcements (the "Total Conformant minus Transit Conformant" bucket
// of Table 2).
func Action1Trivial(m *ASMetrics) bool {
	return m == nil || m.PropCustomer == 0
}
