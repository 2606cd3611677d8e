package manrs

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"manrsmeter/internal/ihr"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpki"
)

func pfx(s string) netx.Prefix { return netx.MustParsePrefix(s) }

var (
	y2018 = time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
	y2020 = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	y2022 = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)
)

func TestRegistryMembership(t *testing.T) {
	r := NewRegistry()
	r.Add(Participant{ASN: 100, OrgID: "o1", Program: ProgramISP, Joined: y2018})
	r.Add(Participant{ASN: 200, OrgID: "o2", Program: ProgramCDN, Joined: y2020})

	if !r.IsMember(100, y2022) || !r.IsMember(200, y2022) {
		t.Error("both should be members in 2022")
	}
	if !r.IsMember(100, y2018) {
		t.Error("membership starts at the join date")
	}
	if r.IsMember(200, y2018) {
		t.Error("AS200 had not joined by 2018")
	}
	if r.IsMember(300, y2022) {
		t.Error("unknown AS is never a member")
	}
	if !r.IsMember(200, time.Time{}) {
		t.Error("zero time means ever-member")
	}
	if got := len(r.Members(y2018)); got != 1 {
		t.Errorf("members 2018 = %d", got)
	}
	if got := len(r.Members(time.Time{})); got != 2 {
		t.Errorf("all members = %d", got)
	}
	if got := r.MemberOrgs(y2022); len(got) != 2 || got[0] != "o1" {
		t.Errorf("member orgs = %v", got)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestRegistryAddKeepsEarliestJoin(t *testing.T) {
	r := NewRegistry()
	r.Add(Participant{ASN: 100, Program: ProgramISP, Joined: y2020})
	r.Add(Participant{ASN: 100, Program: ProgramCDN, Joined: y2018})
	p, _ := r.Lookup(100)
	if !p.Joined.Equal(y2018) || p.Program != ProgramCDN {
		t.Errorf("should keep earliest join: %+v", p)
	}
	r.Add(Participant{ASN: 100, Program: ProgramISP, Joined: y2022})
	p, _ = r.Lookup(100)
	if !p.Joined.Equal(y2018) {
		t.Errorf("later join must not override: %+v", p)
	}
}

// The participant list round-trips through its CSV form, and a
// malformed list fails closed with an error naming the line.
func TestParticipantsCSV(t *testing.T) {
	reg := NewRegistry()
	reg.Add(Participant{ASN: 64501, OrgID: "org-b", Program: ProgramCDN, Joined: y2020})
	reg.Add(Participant{ASN: 64500, OrgID: "org-a", Program: ProgramISP, Joined: y2018})
	var buf strings.Builder
	if err := reg.WriteCSV(&buf, time.Time{}); err != nil {
		t.Fatal(err)
	}
	const want = "asn,org,program,joined\nAS64500,org-a,ISP,2018-06-01\nAS64501,org-b,CDN,2020-06-01\n"
	if buf.String() != want {
		t.Fatalf("WriteCSV wrote\n%s\nwant\n%s", buf.String(), want)
	}
	back := NewRegistry()
	if err := back.ReadCSV(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	if got := back.Members(time.Time{}); !reflect.DeepEqual(got, reg.Members(time.Time{})) {
		t.Fatalf("read back %+v", got)
	}

	const header = "asn,org,program,joined\n"
	for name, tc := range map[string]struct{ in, err string }{
		"bad ASN":          {header + "ASx,org-a,ISP,2018-06-01\n", "line 2: bad ASN"},
		"ASN out of range": {header + "AS4294967296,org-a,ISP,2018-06-01\n", "line 2: bad ASN"},
		"missing fields":   {header + "AS64500,org-a,ISP\n", "line 2: want 4 fields"},
		"extra field":      {header + "AS64500,org-a,ISP,2018-06-01,x\n", "line 2: want 4 fields"},
		"no organization":  {header + "AS64500,,ISP,2018-06-01\n", "line 2: AS64500 has no organization"},
		"unknown program":  {header + "AS64500,org-a,IXP,2018-06-01\n", "line 2: unknown program"},
		"bad date":         {header + "AS64500,org-a,ISP,2018-13-01\n", "line 2: bad join date"},
		"bad later row":    {header + "AS64500,org-a,ISP,2018-06-01\n\nAS64501,org-b,CDN,06/01/2020\n", "line 4: bad join date"},
		"header only":      {header, "line 1: no participant rows"},
		"empty":            {"", "line 0: no participant rows"},
		"no header":        {"AS64500,org-a,ISP,2018-06-01\n", "line 1: header"},
	} {
		err := NewRegistry().ReadCSV(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: ReadCSV error %v, want one containing %q", name, err, tc.err)
		}
	}
}

func TestClassifySize(t *testing.T) {
	tests := []struct {
		degree int
		want   SizeClass
	}{
		{0, Small}, {2, Small}, {3, Medium}, {180, Medium}, {181, Large}, {10000, Large},
	}
	for _, tt := range tests {
		if got := ClassifySize(tt.degree); got != tt.want {
			t.Errorf("ClassifySize(%d) = %v, want %v", tt.degree, got, tt.want)
		}
	}
	if Small.String() != "small" || Medium.String() != "medium" || Large.String() != "large" {
		t.Error("size class names")
	}
	if ProgramISP.String() != "ISP" || ProgramCDN.String() != "CDN" {
		t.Error("program names")
	}
}

func TestConformanceClassification(t *testing.T) {
	tests := []struct {
		rpki, irr  rov.Status
		conformant bool
		unconf     bool
	}{
		{rov.Valid, rov.NotFound, true, false},
		{rov.NotFound, rov.Valid, true, false},
		{rov.NotFound, rov.InvalidLength, true, false}, // de-aggregation tolerated
		{rov.NotFound, rov.NotFound, false, false},     // neither bucket
		{rov.InvalidASN, rov.Valid, true, false},       // IRR-valid wins over a stale ROA
		{rov.InvalidASN, rov.NotFound, false, true},
		{rov.InvalidLength, rov.NotFound, false, true},
		{rov.NotFound, rov.InvalidASN, false, true},
		{rov.Valid, rov.InvalidASN, true, false},
	}
	for _, tt := range tests {
		if got := Conformant(tt.rpki, tt.irr); got != tt.conformant {
			t.Errorf("Conformant(%v,%v) = %v", tt.rpki, tt.irr, got)
		}
		if got := Unconformant(tt.rpki, tt.irr); got != tt.unconf {
			t.Errorf("Unconformant(%v,%v) = %v", tt.rpki, tt.irr, got)
		}
	}
}

func sampleDataset() *ihr.Dataset {
	return &ihr.Dataset{
		PrefixOrigins: []ihr.PrefixOrigin{
			{Prefix: pfx("10.0.0.0/16"), Origin: 100, RPKI: rov.Valid, IRR: rov.Valid},
			{Prefix: pfx("10.1.0.0/16"), Origin: 100, RPKI: rov.NotFound, IRR: rov.InvalidLength},
			{Prefix: pfx("10.2.0.0/16"), Origin: 100, RPKI: rov.InvalidASN, IRR: rov.NotFound},
			{Prefix: pfx("10.3.0.0/16"), Origin: 100, RPKI: rov.NotFound, IRR: rov.NotFound},
			{Prefix: pfx("10.4.0.0/16"), Origin: 200, RPKI: rov.Valid, IRR: rov.NotFound},
		},
		Transits: []ihr.TransitRow{
			{Prefix: pfx("10.0.0.0/16"), Origin: 100, Transit: 900, Hegemony: 1, RPKI: rov.Valid, IRR: rov.Valid, FromCustomer: true},
			{Prefix: pfx("10.2.0.0/16"), Origin: 100, Transit: 900, Hegemony: 1, RPKI: rov.InvalidASN, IRR: rov.NotFound, FromCustomer: true},
			{Prefix: pfx("10.4.0.0/16"), Origin: 200, Transit: 900, Hegemony: 0.5, RPKI: rov.Valid, IRR: rov.NotFound, FromCustomer: false},
			{Prefix: pfx("10.4.0.0/16"), Origin: 200, Transit: 901, Hegemony: 0.5, RPKI: rov.Valid, IRR: rov.NotFound, FromCustomer: true},
		},
	}
}

func TestComputeMetricsFormulas(t *testing.T) {
	ds := sampleDataset()
	ms := ComputeMetrics(ds)
	origTotal := 0
	for _, m := range ms {
		origTotal += m.Originated
	}
	if origTotal != len(ds.PrefixOrigins) {
		t.Errorf("metrics cover %d originations, dataset has %d", origTotal, len(ds.PrefixOrigins))
	}
	m100 := ms[100]
	if m100.Originated != 4 {
		t.Fatalf("originated = %d", m100.Originated)
	}
	if got := m100.OGRPKIValid(); got != 25 {
		t.Errorf("Formula 1 = %g, want 25", got)
	}
	if got := m100.OGIRRValid(); got != 25 {
		t.Errorf("Formula 2 = %g, want 25", got)
	}
	// Conformant: Valid/Valid and NotFound/InvalidLength → 2/4.
	if got := m100.OGConformant(); got != 50 {
		t.Errorf("Formula 3 = %g, want 50", got)
	}

	m900 := ms[900]
	if m900.Propagated != 3 {
		t.Fatalf("propagated = %d", m900.Propagated)
	}
	if got := m900.PGRPKIInvalid(); math.Abs(got-100.0/3) > 1e-9 {
		t.Errorf("Formula 4 = %g", got)
	}
	if got := m900.PGIRRInvalid(); got != 0 {
		t.Errorf("Formula 5 = %g", got)
	}
	// Customer-learned: 2 (10.0 valid, 10.2 invalid) → 50% unconformant.
	if got := m900.PGUnconformant(); got != 50 {
		t.Errorf("Formula 6 = %g", got)
	}

	// An AS with no originations: formulas are NaN.
	if !math.IsNaN(m900.OGRPKIValid()) {
		t.Error("origination formulas for pure transit should be NaN")
	}
	m901 := ms[901]
	if m901.PropCustomer != 1 || m901.PGUnconformant() != 0 {
		t.Errorf("m901 = %+v", m901)
	}
}

func TestAction4Conformance(t *testing.T) {
	ms := ComputeMetrics(sampleDataset())
	// AS100: 50% conformant → fails both programs.
	if Action4Conformant(ms[100], ProgramISP) || Action4Conformant(ms[100], ProgramCDN) {
		t.Error("AS100 must be unconformant")
	}
	// AS200: 100% → passes both.
	if !Action4Conformant(ms[200], ProgramISP) || !Action4Conformant(ms[200], ProgramCDN) {
		t.Error("AS200 must be conformant")
	}
	// Nil / empty metrics: trivially conformant.
	if !Action4Conformant(nil, ProgramISP) || !Action4Conformant(&ASMetrics{}, ProgramCDN) {
		t.Error("no originations must be trivially conformant")
	}
	// Boundary: exactly 90% passes ISP, fails CDN.
	m := &ASMetrics{Originated: 10, OriginConform: 9}
	if !Action4Conformant(m, ProgramISP) {
		t.Error("90% must pass the ISP program")
	}
	if Action4Conformant(m, ProgramCDN) {
		t.Error("90% must fail the CDN program")
	}
}

func TestAction1Conformance(t *testing.T) {
	ms := ComputeMetrics(sampleDataset())
	if Action1Conformant(ms[900]) {
		t.Error("AS900 propagated an unconformant customer route")
	}
	if !Action1Conformant(ms[901]) {
		t.Error("AS901 is conformant")
	}
	if Action1Trivial(ms[900]) || Action1Trivial(ms[901]) {
		t.Error("both transit customer routes")
	}
	if !Action1Trivial(ms[200]) {
		t.Error("AS200 propagates nothing")
	}
	if !Action1Conformant(nil) || !Action1Trivial(nil) {
		t.Error("nil metrics must be trivially conformant")
	}
}

func TestRPKISaturation(t *testing.T) {
	reg := NewRegistry()
	reg.Add(Participant{ASN: 100, Joined: y2018})
	origins := []ihr.PrefixOrigin{
		{Prefix: pfx("10.0.0.0/8"), Origin: 100},  // member, /8
		{Prefix: pfx("20.0.0.0/8"), Origin: 200},  // non-member, /8
		{Prefix: pfx("20.1.0.0/16"), Origin: 200}, // nested: no extra space
	}
	vrps := []rpki.VRP{
		{Prefix: pfx("10.0.0.0/9"), ASN: 100, MaxLength: 9}, // half the member space
		{Prefix: pfx("20.0.0.0/8"), ASN: 200, MaxLength: 8}, // all the non-member space
	}
	member, non := RPKISaturation(origins, nil, vrps, reg, y2022)
	if member.RoutedSpace != 1<<24 || member.CoveredSpace != 1<<23 {
		t.Errorf("member saturation = %+v", member)
	}
	if got := member.Ratio(); got != 0.5 {
		t.Errorf("member ratio = %g", got)
	}
	if non.RoutedSpace != 1<<24 || non.Ratio() != 1 {
		t.Errorf("non-member saturation = %+v", non)
	}
	// Before the join date AS100 is a non-member.
	member, non = RPKISaturation(origins, nil, vrps, reg, time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC))
	if member.RoutedSpace != 0 {
		t.Errorf("pre-join member space = %d", member.RoutedSpace)
	}
	if non.RoutedSpace != 2<<24 {
		t.Errorf("pre-join non-member space = %d", non.RoutedSpace)
	}
	if (Saturation{}).Ratio() != 0 {
		t.Error("empty cohort ratio should be 0")
	}
}

func TestPreferenceScores(t *testing.T) {
	reg := NewRegistry()
	reg.Add(Participant{ASN: 900, Joined: y2018})
	transits := []ihr.TransitRow{
		{Prefix: pfx("10.0.0.0/16"), Origin: 100, Transit: 900, Hegemony: 0.8, RPKI: rov.Valid},
		{Prefix: pfx("10.0.0.0/16"), Origin: 100, Transit: 901, Hegemony: 0.3, RPKI: rov.Valid},
		{Prefix: pfx("10.9.0.0/16"), Origin: 100, Transit: 901, Hegemony: 1.0, RPKI: rov.InvalidASN},
	}
	scores := PreferenceScores(transits, reg, y2022)
	if len(scores) != 2 {
		t.Fatalf("scores = %v", scores)
	}
	if math.Abs(scores[0].Score-0.5) > 1e-9 || scores[0].RPKI != rov.Valid {
		t.Errorf("score 0 = %+v", scores[0])
	}
	if scores[1].Score != -1 || scores[1].RPKI != rov.InvalidASN {
		t.Errorf("score 1 = %+v", scores[1])
	}
}

func TestRegistrationCompleteness(t *testing.T) {
	reg := NewRegistry()
	reg.Add(Participant{ASN: 100, OrgID: "full", Joined: y2018})
	reg.Add(Participant{ASN: 200, OrgID: "partial", Joined: y2018})
	reg.Add(Participant{ASN: 400, OrgID: "quiet", Joined: y2018})

	orgASNs := map[string][]uint32{
		"full":    {100},
		"partial": {200, 201}, // 201 not in MANRS and announces space
		"quiet":   {400, 401}, // 401 not in MANRS but quiescent
		"outside": {300},      // no member ASes: not reported
	}
	origins := []ihr.PrefixOrigin{
		{Prefix: pfx("10.0.0.0/16"), Origin: 100},
		{Prefix: pfx("10.1.0.0/16"), Origin: 200},
		{Prefix: pfx("10.2.0.0/16"), Origin: 201},
		{Prefix: pfx("10.3.0.0/16"), Origin: 300},
		{Prefix: pfx("10.4.0.0/16"), Origin: 400},
	}
	reps := RegistrationCompleteness(orgASNs, origins, reg, y2022)
	if len(reps) != 3 {
		t.Fatalf("reports = %+v", reps)
	}
	byOrg := map[string]CompletenessReport{}
	for _, r := range reps {
		byOrg[r.OrgID] = r
	}
	full := byOrg["full"]
	if !full.AllASNsRegistered || !full.AllSpaceViaMembers || full.QuiescentNonMembers {
		t.Errorf("full = %+v", full)
	}
	partial := byOrg["partial"]
	if partial.AllASNsRegistered || partial.AllSpaceViaMembers || partial.QuiescentNonMembers {
		t.Errorf("partial = %+v", partial)
	}
	if partial.TotalSpace != 2<<16 || partial.SpaceViaMembers != 1<<16 {
		t.Errorf("partial space = %+v", partial)
	}
	quiet := byOrg["quiet"]
	if quiet.AllASNsRegistered || !quiet.AllSpaceViaMembers || !quiet.QuiescentNonMembers {
		t.Errorf("quiet = %+v", quiet)
	}
}

// ComputeMetrics looks an AS up once per run of its rows; over thousands
// of ASes, in runs and scattered, transit-only ones included, it equals
// a count kept row by row in a map.
func TestComputeMetricsManyASes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ds := &ihr.Dataset{}
	for origin := uint32(0); origin < 3000; origin++ {
		for range 1 + r.Intn(3) {
			ds.PrefixOrigins = append(ds.PrefixOrigins, ihr.PrefixOrigin{
				Prefix: pfx("10.0.0.0/8"), Origin: origin * 7919, RPKI: rov.Status(r.Intn(4)), IRR: rov.Status(r.Intn(4))})
		}
	}
	for range 20000 {
		ds.Transits = append(ds.Transits, ihr.TransitRow{Prefix: pfx("10.0.0.0/8"), Transit: uint32(r.Intn(5000)) << 10,
			RPKI: rov.Status(r.Intn(4)), IRR: rov.Status(r.Intn(4)), FromCustomer: r.Intn(2) == 0})
	}
	want := map[uint32]*ASMetrics{}
	get := func(asn uint32) *ASMetrics {
		if want[asn] == nil {
			want[asn] = &ASMetrics{ASN: asn}
		}
		return want[asn]
	}
	for _, po := range ds.PrefixOrigins {
		m := get(po.Origin)
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
		m := get(tr.Transit)
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
	if got := ComputeMetrics(ds); !reflect.DeepEqual(got, want) {
		t.Errorf("ComputeMetrics over %d ASes differs from a map count (%d entries)", len(want), len(got))
	}
}
