package rov

import (
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"manrsmeter/internal/netx"
)

func mustAdd(t *testing.T, ix *Index, prefix string, asn uint32, maxLen int) {
	t.Helper()
	if err := ix.Add(Authorization{Prefix: netx.MustParsePrefix(prefix), ASN: asn, MaxLength: maxLen}); err != nil {
		t.Fatalf("Add(%s AS%d max%d): %v", prefix, asn, maxLen, err)
	}
}

func TestStatusString(t *testing.T) {
	tests := []struct {
		s    Status
		want string
	}{
		{NotFound, "NotFound"},
		{Valid, "Valid"},
		{InvalidASN, "Invalid"},
		{InvalidLength, "InvalidLength"},
		{Status(99), "Status(99)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", tt.s, got, tt.want)
		}
	}
	if !InvalidASN.IsInvalid() || !InvalidLength.IsInvalid() {
		t.Error("invalid variants must report IsInvalid")
	}
	if Valid.IsInvalid() || NotFound.IsInvalid() {
		t.Error("Valid/NotFound must not report IsInvalid")
	}
}

// The canonical RFC 6811 example set.
func buildIndex(t *testing.T) *Index {
	ix := NewIndex()
	mustAdd(t, ix, "10.0.0.0/16", 64500, 24) // allows 10.0/16..24 by AS64500
	mustAdd(t, ix, "10.1.0.0/16", 64501, 16) // exact-length only
	mustAdd(t, ix, "2001:db8::/32", 64500, 48)
	return ix
}

func TestValidate(t *testing.T) {
	ix := buildIndex(t)
	tests := []struct {
		prefix string
		asn    uint32
		want   Status
	}{
		{"10.0.0.0/16", 64500, Valid},
		{"10.0.5.0/24", 64500, Valid},         // within max length
		{"10.0.5.0/25", 64500, InvalidLength}, // too specific
		{"10.0.0.0/16", 64666, InvalidASN},
		{"10.1.0.0/16", 64501, Valid},
		{"10.1.0.0/20", 64501, InvalidLength},
		{"10.1.0.0/20", 64500, InvalidASN},
		{"10.2.0.0/16", 64500, NotFound},
		{"192.0.2.0/24", 64500, NotFound},
		{"2001:db8::/32", 64500, Valid},
		{"2001:db8:5::/48", 64500, Valid},
		{"2001:db8::/49", 64500, InvalidLength},
		{"2001:db8::/40", 64999, InvalidASN},
		{"2001:db9::/32", 64500, NotFound},
	}
	prefixes := make([]netx.Prefix, len(tests))
	for i, tt := range tests {
		prefixes[i] = netx.MustParsePrefix(tt.prefix)
		if got := ix.Validate(prefixes[i], tt.asn); got != tt.want {
			t.Errorf("Validate(%s, AS%d) = %v, want %v", tt.prefix, tt.asn, got, tt.want)
		}
	}
	// A dataset build validates every origination twice: a lookup,
	// covered or not, must not allocate.
	if n := testing.AllocsPerRun(100, func() {
		for i, tt := range tests {
			ix.Validate(prefixes[i], tt.asn)
		}
	}); n != 0 {
		t.Errorf("Validate allocates %v times over %d lookups, want 0", n, len(tests))
	}
}

// More covering authorizations than Validate's stack buffer holds: the
// overflow is still classified like the linear scan.
func TestValidateManyCovering(t *testing.T) {
	ix := NewIndex()
	for bits := 8; bits <= 20; bits++ {
		p, _ := netx.PrefixFrom(netip.MustParseAddr("10.0.0.0"), bits)
		mustAddQuick(ix, p, uint32(64500+bits), bits)
	}
	mustAdd(t, ix, "10.0.0.0/20", 64600, 24) // last in walk order
	p := netx.MustParsePrefix("10.0.0.0/24")
	for asn, want := range map[uint32]Status{64600: Valid, 64520: InvalidLength, 64999: InvalidASN} {
		if got := ix.Validate(p, asn); got != want || got != ix.ValidateLinear(p, asn) {
			t.Errorf("Validate(%s, AS%d) = %v, want %v (linear %v)", p, asn, got, want, ix.ValidateLinear(p, asn))
		}
	}
}

func TestValidateMultipleAuthorizations(t *testing.T) {
	// A prefix covered by two authorizations with different ASNs: either
	// origin is Valid, a third is InvalidASN.
	ix := NewIndex()
	mustAdd(t, ix, "192.0.2.0/24", 64500, 24)
	mustAdd(t, ix, "192.0.2.0/24", 64501, 24)
	p := netx.MustParsePrefix("192.0.2.0/24")
	if got := ix.Validate(p, 64500); got != Valid {
		t.Errorf("first origin = %v", got)
	}
	if got := ix.Validate(p, 64501); got != Valid {
		t.Errorf("second origin = %v", got)
	}
	if got := ix.Validate(p, 64502); got != InvalidASN {
		t.Errorf("unauthorized origin = %v", got)
	}
}

func TestInvalidLengthBeatsInvalidASN(t *testing.T) {
	// Paper §2.3: invalid-length (with matching ASN) is reported even when
	// other covering VRPs mismatch the ASN.
	ix := NewIndex()
	mustAdd(t, ix, "10.0.0.0/16", 64500, 16)
	mustAdd(t, ix, "10.0.0.0/8", 64999, 8)
	got := ix.Validate(netx.MustParsePrefix("10.0.0.0/24"), 64500)
	if got != InvalidLength {
		t.Errorf("status = %v, want InvalidLength", got)
	}
}

func TestAS0Authorization(t *testing.T) {
	// AS0 ROAs (paper §8.1 case study: Indonesian ISP with AS0 ROA) make
	// every real origin InvalidASN.
	ix := NewIndex()
	mustAdd(t, ix, "203.0.113.0/24", 0, 24)
	got := ix.Validate(netx.MustParsePrefix("203.0.113.0/24"), 23947)
	if got != InvalidASN {
		t.Errorf("AS0-covered announcement = %v, want InvalidASN", got)
	}
}

func TestAddValidation(t *testing.T) {
	ix := NewIndex()
	if err := ix.Add(Authorization{}); err == nil {
		t.Error("zero authorization should be rejected")
	}
	bad := Authorization{Prefix: netx.MustParsePrefix("10.0.0.0/16"), ASN: 1, MaxLength: 8}
	if err := ix.Add(bad); err == nil {
		t.Error("max length < prefix length should be rejected")
	}
	bad.MaxLength = 33
	if err := ix.Add(bad); err == nil {
		t.Error("max length > 32 for v4 should be rejected")
	}
	ok6 := Authorization{Prefix: netx.MustParsePrefix("2001:db8::/32"), ASN: 1, MaxLength: 128}
	if err := ix.Add(ok6); err != nil {
		t.Errorf("v6 max length 128 should be accepted: %v", err)
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d, want 1", ix.Len())
	}
}

func TestCoveringAndAll(t *testing.T) {
	ix := buildIndex(t)
	cov := ix.Covering(netx.MustParsePrefix("10.0.1.0/24"))
	if len(cov) != 1 || cov[0].ASN != 64500 {
		t.Errorf("Covering = %v", cov)
	}
	all := ix.All()
	if len(all) != 3 {
		t.Fatalf("All len = %d", len(all))
	}
	// Sorted: v4 before v6, by address.
	if !all[0].Prefix.Is4() || all[0].ASN != 64500 {
		t.Errorf("All[0] = %v", all[0])
	}
	if !all[2].Prefix.Is6() {
		t.Errorf("All[2] should be v6: %v", all[2])
	}

	// Several authorizations per prefix, added out of (ASN, max length)
	// order and with prefixes out of order too: All sorts them.
	ix = NewIndex()
	for _, a := range []struct {
		p      string
		asn    uint32
		maxLen int
	}{
		{"10.1.0.0/16", 64502, 16}, {"10.0.0.0/16", 64501, 20}, {"10.0.0.0/16", 64500, 24},
		{"10.0.0.0/16", 64501, 18}, {"2001:db8::/32", 64500, 48}, {"10.0.0.0/16", 64500, 16},
		{"10.1.0.0/16", 64501, 24}, {"10.0.0.0/8", 64503, 8},
	} {
		mustAdd(t, ix, a.p, a.asn, a.maxLen)
	}
	want := []Authorization{
		{netx.MustParsePrefix("10.0.0.0/8"), 64503, 8},
		{netx.MustParsePrefix("10.0.0.0/16"), 64500, 16},
		{netx.MustParsePrefix("10.0.0.0/16"), 64500, 24},
		{netx.MustParsePrefix("10.0.0.0/16"), 64501, 18},
		{netx.MustParsePrefix("10.0.0.0/16"), 64501, 20},
		{netx.MustParsePrefix("10.1.0.0/16"), 64501, 24},
		{netx.MustParsePrefix("10.1.0.0/16"), 64502, 16},
		{netx.MustParsePrefix("2001:db8::/32"), 64500, 48},
	}
	if got := ix.All(); !reflect.DeepEqual(got, want) {
		t.Errorf("All = %v\nwant %v", got, want)
	}
}

func TestAuthorizationPermits(t *testing.T) {
	a := Authorization{Prefix: netx.MustParsePrefix("10.0.0.0/16"), ASN: 64500, MaxLength: 20}
	if !a.Permits(netx.MustParsePrefix("10.0.16.0/20"), 64500) {
		t.Error("should permit /20 within max length")
	}
	if a.Permits(netx.MustParsePrefix("10.0.16.0/21"), 64500) {
		t.Error("should not permit /21 beyond max length")
	}
	if a.Permits(netx.MustParsePrefix("10.0.16.0/20"), 64501) {
		t.Error("should not permit other origin")
	}
	if a.Permits(netx.MustParsePrefix("11.0.0.0/20"), 64500) {
		t.Error("should not permit uncovered prefix")
	}
}

// Property: table-backed Validate agrees with the linear reference on
// random authorization sets and queries.
func TestValidateMatchesLinear(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ix := NewIndex()
		for i := 0; i < 30; i++ {
			var a [4]byte
			r.Read(a[:])
			bits := 8 + r.Intn(17) // /8../24
			p, _ := netx.PrefixFrom(netip.AddrFrom4(a), bits)
			maxLen := bits + r.Intn(33-bits)
			asn := uint32(64500 + r.Intn(8))
			if err := ix.Add(Authorization{Prefix: p, ASN: asn, MaxLength: maxLen}); err != nil {
				return false
			}
		}
		for q := 0; q < 20; q++ {
			var a [4]byte
			r.Read(a[:])
			bits := 8 + r.Intn(25)
			p, _ := netx.PrefixFrom(netip.AddrFrom4(a), bits)
			asn := uint32(64500 + r.Intn(10))
			if ix.Validate(p, asn) != ix.ValidateLinear(p, asn) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: RFC 6811 monotonicity — adding authorizations never turns a
// Valid route into anything else.
func TestValidMonotoneUnderAdds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ix := NewIndex()
		p := netx.MustParsePrefix("10.0.0.0/16")
		mustAddQuick(ix, p, 64500, 16)
		if ix.Validate(p, 64500) != Valid {
			return false
		}
		for i := 0; i < 20; i++ {
			var a [4]byte
			r.Read(a[:])
			bits := r.Intn(25)
			q, _ := netx.PrefixFrom(netip.AddrFrom4(a), bits)
			mustAddQuick(ix, q, uint32(r.Intn(70000)), bits+r.Intn(33-bits))
			if ix.Validate(p, 64500) != Valid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func mustAddQuick(ix *Index, p netx.Prefix, asn uint32, maxLen int) {
	if err := ix.Add(Authorization{Prefix: p, ASN: asn, MaxLength: maxLen}); err != nil {
		panic(err)
	}
}

// A 4-in-6 prefix is a 128-bit prefix: IPv4 authorizations never cover
// it, short IPv6 ones do, and its max length may reach 128.
func TestFourInSixIsNotIPv4(t *testing.T) {
	q := netx.MustParsePrefix("::ffff:10.0.0.0/104")
	v4 := NewIndex()
	mustAdd(t, v4, "0.0.0.0/8", 65000, 24)
	v6 := NewIndex()
	mustAdd(t, v6, "::/8", 65000, 24)
	for _, tc := range []struct {
		name string
		ix   *Index
		want Status
	}{{"under 0.0.0.0/8", v4, NotFound}, {"under ::/8", v6, InvalidASN}} {
		if got, lin := tc.ix.Validate(q, 1), tc.ix.ValidateLinear(q, 1); got != tc.want || lin != tc.want {
			t.Errorf("%s: Validate(%s, AS1) = %v, ValidateLinear = %v, want %v", tc.name, q, got, lin, tc.want)
		}
	}
	ix := NewIndex()
	mustAdd(t, ix, "::ffff:10.0.0.0/104", 65000, 128)
	if got := ix.Validate(netx.MustParsePrefix("::ffff:10.1.2.3/128"), 65000); got != Valid {
		t.Errorf("4-in-6 authorization with max length 128: Validate = %v, want Valid", got)
	}
}

// randomAuthPrefix draws from two address bases in each family (IPv4,
// IPv6, 4-in-6) at random lengths, so nested chains, duplicates and
// IPv6 authorizations covering 4-in-6 routes are common.
func randomAuthPrefix(r *rand.Rand) netx.Prefix {
	var addr netip.Addr
	switch r.Intn(3) {
	case 0:
		addr = netip.AddrFrom4([4]byte{10, byte(r.Intn(2)), byte(r.Intn(4) << 6)})
	case 1:
		addr = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(r.Intn(2))})
	default:
		addr = netip.AddrFrom16([16]byte{10: 0xff, 11: 0xff, 12: 10, 13: byte(r.Intn(2)), 14: byte(r.Intn(4) << 6)})
	}
	p, _ := netx.PrefixFrom(addr, r.Intn(addr.BitLen()+1))
	return p
}

// Differential: on random indexes over both families and 4-in-6, with
// duplicates, nested chains and adds after reads, Validate equals
// ValidateLinear and Covering equals a linear covering scan.
func TestValidateAndCoveringMatchLinear(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ix := NewIndex()
		var added []Authorization
		for round := 0; round < 3; round++ {
			for i := 0; i < 20; i++ {
				p := randomAuthPrefix(r)
				width := 128
				if p.Is4() {
					width = 32
				}
				a := Authorization{Prefix: p, ASN: uint32(64500 + r.Intn(3)), MaxLength: p.Bits() + r.Intn(width-p.Bits()+1)}
				if err := ix.Add(a); err != nil {
					t.Log(err)
					return false
				}
				added = append(added, a)
			}
			for q := 0; q < 30; q++ {
				p, asn := randomAuthPrefix(r), uint32(64500+r.Intn(4))
				if got, want := ix.Validate(p, asn), ix.ValidateLinear(p, asn); got != want {
					t.Logf("seed %d: Validate(%s, AS%d) = %v, ValidateLinear = %v", seed, p, asn, got, want)
					return false
				}
				var want []Authorization
				for _, a := range added {
					if a.Covers(p) {
						want = append(want, a)
					}
				}
				slices.SortStableFunc(want, func(a, b Authorization) int { return a.Prefix.Bits() - b.Prefix.Bits() })
				if got := ix.Covering(p); !slices.Equal(got, want) {
					t.Logf("seed %d: Covering(%s) = %v, linear scan %v", seed, p, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
