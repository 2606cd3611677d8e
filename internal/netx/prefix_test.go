package netx

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestParsePrefix(t *testing.T) {
	tests := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{"192.0.2.0/24", "192.0.2.0/24", false},
		{" 192.0.2.0/24 ", "192.0.2.0/24", false},
		{"192.0.2.55/24", "192.0.2.0/24", false}, // host bits masked
		{"10.0.0.0/8", "10.0.0.0/8", false},
		{"0.0.0.0/0", "0.0.0.0/0", false},
		{"2001:db8::/32", "2001:db8::/32", false},
		{"2001:db8::1/48", "2001:db8::/48", false},
		{"::/0", "::/0", false},
		{"192.0.2.0", "", true},
		{"192.0.2.0/33", "", true},
		{"2001:db8::/129", "", true},
		{"bogus", "", true},
		{"", "", true},
	}
	for _, tt := range tests {
		got, err := ParsePrefix(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParsePrefix(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got.String() != tt.want {
			t.Errorf("ParsePrefix(%q) = %s, want %s", tt.in, got, tt.want)
		}
	}
}

func TestPrefixFamilies(t *testing.T) {
	v4 := MustParsePrefix("198.51.100.0/24")
	v6 := MustParsePrefix("2001:db8::/32")
	if !v4.Is4() || v4.Is6() {
		t.Errorf("family of %s misdetected", v4)
	}
	if !v6.Is6() || v6.Is4() {
		t.Errorf("family of %s misdetected", v6)
	}
	if (Prefix{}).IsValid() {
		t.Error("zero Prefix should be invalid")
	}
	if got := (Prefix{}).String(); got != "invalid Prefix" {
		t.Errorf("zero Prefix String = %q", got)
	}
}

func TestCovers(t *testing.T) {
	tests := []struct {
		a, b string
		want bool
	}{
		{"10.0.0.0/8", "10.1.0.0/16", true},
		{"10.0.0.0/8", "10.0.0.0/8", true}, // self-cover
		{"10.1.0.0/16", "10.0.0.0/8", false},
		{"10.0.0.0/8", "11.0.0.0/16", false},
		{"0.0.0.0/0", "203.0.113.0/24", true},
		{"2001:db8::/32", "2001:db8:1::/48", true},
		{"2001:db8::/32", "2001:db9::/48", false},
		{"10.0.0.0/8", "2001:db8::/32", false}, // cross-family
		{"::/0", "10.0.0.0/8", false},          // cross-family even at /0
	}
	for _, tt := range tests {
		a, b := MustParsePrefix(tt.a), MustParsePrefix(tt.b)
		if got := a.Covers(b); got != tt.want {
			t.Errorf("%s.Covers(%s) = %v, want %v", a, b, got, tt.want)
		}
	}
}

func TestAddressCount(t *testing.T) {
	tests := []struct {
		p    string
		want float64
	}{
		{"10.0.0.0/8", 1 << 24},
		{"192.0.2.0/24", 256},
		{"192.0.2.1/32", 1},
		{"0.0.0.0/0", 1 << 32},
		{"2001:db8::/126", 4},
	}
	for _, tt := range tests {
		if got := MustParsePrefix(tt.p).AddressCount(); got != tt.want {
			t.Errorf("AddressCount(%s) = %g, want %g", tt.p, got, tt.want)
		}
	}
	if got := (Prefix{}).AddressCount(); got != 0 {
		t.Errorf("AddressCount(zero) = %g, want 0", got)
	}
}

func TestNthSubprefix(t *testing.T) {
	base := MustParsePrefix("10.0.0.0/8")
	tests := []struct {
		bits int
		i    uint64
		want string
	}{
		{16, 0, "10.0.0.0/16"},
		{16, 1, "10.1.0.0/16"},
		{16, 255, "10.255.0.0/16"},
		{9, 1, "10.128.0.0/9"},
		{24, 65535, "10.255.255.0/24"},
	}
	for _, tt := range tests {
		got, err := base.NthSubprefix(tt.bits, tt.i)
		if err != nil {
			t.Errorf("NthSubprefix(%d,%d): %v", tt.bits, tt.i, err)
			continue
		}
		if got.String() != tt.want {
			t.Errorf("NthSubprefix(%d,%d) = %s, want %s", tt.bits, tt.i, got, tt.want)
		}
		if !base.Covers(got) {
			t.Errorf("base must cover subprefix %s", got)
		}
	}
	if _, err := base.NthSubprefix(8, 0); err == nil {
		t.Error("subprefix at same length should error")
	}
	if _, err := base.NthSubprefix(33, 0); err == nil {
		t.Error("subprefix beyond /32 should error")
	}
	if _, err := base.NthSubprefix(16, 256); err == nil {
		t.Error("out-of-range index should error")
	}
}

func TestNthSubprefixV6(t *testing.T) {
	base := MustParsePrefix("2001:db8::/32")
	got, err := base.NthSubprefix(48, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "2001:db8:5::/48" {
		t.Errorf("v6 subprefix = %s, want 2001:db8:5::/48", got)
	}
	if !base.Covers(got) {
		t.Error("v6 base must cover subprefix")
	}
}

func TestCompareOrdering(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.0.0.0/16")
	c := MustParsePrefix("11.0.0.0/8")
	if a.Compare(b) >= 0 {
		t.Error("shorter prefix at same address should sort first")
	}
	if b.Compare(c) >= 0 {
		t.Error("lower address should sort first")
	}
	if a.Compare(a) != 0 {
		t.Error("Compare(self) != 0")
	}
	if got := b.Compare(a); got <= 0 {
		t.Error("Compare should be antisymmetric")
	}
}

// randomPrefix4 builds an arbitrary valid IPv4 prefix from rand state.
func randomPrefix4(r *rand.Rand) Prefix {
	var a [4]byte
	r.Read(a[:])
	bits := r.Intn(33)
	p, _ := PrefixFrom(netip.AddrFrom4(a), bits)
	return p
}

func randomPrefix6(r *rand.Rand) Prefix {
	var a [16]byte
	r.Read(a[:])
	bits := r.Intn(129)
	p, _ := PrefixFrom(netip.AddrFrom16(a), bits)
	return p
}

// Property: parsing the String() of any prefix round-trips.
func TestPrefixStringRoundTrip(t *testing.T) {
	f := func(seed int64, v6 bool) bool {
		r := rand.New(rand.NewSource(seed))
		var p Prefix
		if v6 {
			p = randomPrefix6(r)
		} else {
			p = randomPrefix4(r)
		}
		q, err := ParsePrefix(p.String())
		return err == nil && q == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Covers is reflexive and antisymmetric except for equality, and
// NthSubprefix output is always covered by its base.
func TestCoversProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPrefix4(r)
		if !p.Covers(p) {
			return false
		}
		q := randomPrefix4(r)
		if p.Covers(q) && q.Covers(p) && p != q {
			return false
		}
		if p.Bits() < 32 {
			sub, err := p.NthSubprefix(p.Bits()+1, uint64(r.Intn(2)))
			if err != nil || !p.Covers(sub) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// randomNetip draws an IPv4, IPv6 or 4-in-6 address and a length valid
// for it.
func randomNetip(r *rand.Rand) (netip.Addr, int) {
	var a [16]byte
	r.Read(a[:])
	var addr netip.Addr
	switch r.Intn(3) {
	case 0:
		addr = netip.AddrFrom4([4]byte(a[:4]))
	case 1:
		addr = netip.AddrFrom16(a)
	default:
		addr = netip.AddrFrom16([16]byte{10: 0xff, 11: 0xff, 12: a[0], 13: a[1], 14: a[2], 15: a[3]})
	}
	return addr, r.Intn(addr.BitLen() + 1)
}

// Property: Prefix answers like net/netip over random IPv4, IPv6 and
// 4-in-6 values: the parse round trip, Addr, Bits, String, the sign of
// Compare, and Covers.
func TestPrefixMatchesNetip(t *testing.T) {
	sign := func(c int) int { return min(max(c, -1), 1) }
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		aa, abits := randomNetip(r)
		ba, bbits := randomNetip(r)
		if r.Intn(2) == 0 { // same family, often nested
			ba, bbits = aa, r.Intn(aa.BitLen()+1)
		}
		na, nb := netip.PrefixFrom(aa, abits).Masked(), netip.PrefixFrom(ba, bbits).Masked()
		pa, err := PrefixFrom(aa, abits)
		if err != nil {
			t.Logf("PrefixFrom(%s, %d): %v", aa, abits, err)
			return false
		}
		pb, _ := PrefixFrom(ba, bbits)
		if q, err := ParsePrefix(pa.String()); err != nil || q != pa {
			t.Logf("%s does not round-trip: %v, %v", pa, q, err)
			return false
		}
		if pa.Addr() != na.Addr() || pa.Bits() != na.Bits() || pa.String() != na.String() {
			t.Logf("%s: Addr %s Bits %d, netip says %s", pa, pa.Addr(), pa.Bits(), na)
			return false
		}
		wantCmp := na.Addr().Compare(nb.Addr())
		if wantCmp == 0 {
			wantCmp = na.Bits() - nb.Bits()
		}
		if sign(pa.Compare(pb)) != sign(wantCmp) {
			t.Logf("%s.Compare(%s) = %d, netip order says %d", pa, pb, pa.Compare(pb), wantCmp)
			return false
		}
		wantCovers := na.Bits() <= nb.Bits() && na.Contains(nb.Addr())
		if pa.Covers(pb) != wantCovers {
			t.Logf("%s.Covers(%s) = %v, netip says %v", pa, pb, pa.Covers(pb), wantCovers)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
