// Package netx provides the address and prefix substrate used throughout
// manrsmeter: a compact Prefix representation for IPv4 and IPv6, parsing
// and formatting helpers, and a binary radix trie (see trie.go) supporting
// the covering-entry lookups required by RFC 6811 route origin validation
// and by IRR route-object matching.
//
// The package deliberately builds on net/netip from the standard library:
// netip.Prefix is comparable, allocation-free, and canonical, which makes
// it suitable both as a map key and as a trie key.
package netx

import (
	"fmt"
	"math"
	"net/netip"
	"strings"
)

// Prefix is a validated, masked IP prefix. The zero value is invalid.
//
// Prefix wraps netip.Prefix rather than aliasing it so that methods with
// routing-specific semantics (covering, more-specific, address-span) live
// on a domain type, and so the rest of the repository never depends on
// netip directly.
type Prefix struct {
	p netip.Prefix
}

// ParsePrefix parses s as an IP prefix in CIDR notation ("192.0.2.0/24",
// "2001:db8::/32"). The host bits must not necessarily be zero; they are
// masked away, matching how routing databases canonicalize entries.
func ParsePrefix(s string) (Prefix, error) {
	p, err := netip.ParsePrefix(strings.TrimSpace(s))
	if err != nil {
		return Prefix{}, fmt.Errorf("netx: parse prefix %q: %w", s, err)
	}
	return Prefix{p.Masked()}, nil
}

// MustParsePrefix is ParsePrefix for statically known inputs; it panics on
// error. It is confined to tests, examples, and compile-time table
// literals — library code that consumes runtime data must use
// ParsePrefix and surface the error instead of panicking.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// PrefixFrom builds a Prefix from an address and a length, masking host bits.
// It returns an error when bits is out of range for the address family.
func PrefixFrom(addr netip.Addr, bits int) (Prefix, error) {
	p := netip.PrefixFrom(addr, bits)
	if !p.IsValid() {
		return Prefix{}, fmt.Errorf("netx: invalid prefix %s/%d", addr, bits)
	}
	return Prefix{p.Masked()}, nil
}

// Addr returns the (masked) network address.
func (p Prefix) Addr() netip.Addr { return p.p.Addr() }

// Bits returns the prefix length.
func (p Prefix) Bits() int { return p.p.Bits() }

// IsValid reports whether p is a valid, non-zero prefix.
func (p Prefix) IsValid() bool { return p.p.IsValid() }

// Is4 reports whether p is an IPv4 prefix.
func (p Prefix) Is4() bool { return p.p.Addr().Is4() }

// Is6 reports whether p is an IPv6 (non-4-mapped) prefix.
func (p Prefix) Is6() bool { return p.p.Addr().Is6() && !p.p.Addr().Is4In6() }

// String returns CIDR notation, or "invalid Prefix" for the zero value.
func (p Prefix) String() string {
	if !p.p.IsValid() {
		return "invalid Prefix"
	}
	return p.p.String()
}

// Covers reports whether p contains o entirely: o's network address lies
// inside p and o is at least as specific as p. A prefix covers itself.
// Prefixes of different address families never cover one another.
func (p Prefix) Covers(o Prefix) bool {
	if !p.IsValid() || !o.IsValid() || p.Is4() != o.Is4() {
		return false
	}
	return p.Bits() <= o.Bits() && p.p.Contains(o.p.Addr())
}

// Compare orders prefixes first by family (IPv4 before IPv6), then by
// network address, then by length (shorter first). It is suitable for
// slices.SortFunc.
func (p Prefix) Compare(o Prefix) int {
	pa, oa := p.p.Addr(), o.p.Addr()
	if c := pa.Compare(oa); c != 0 {
		return c
	}
	switch {
	case p.Bits() < o.Bits():
		return -1
	case p.Bits() > o.Bits():
		return 1
	}
	return 0
}

// AddressCount returns the number of addresses spanned by p as a float64.
// IPv4 /0 spans 2^32; IPv6 spans up to 2^128, which exceeds uint64, hence
// the float return. Address-space "saturation" metrics in the paper are
// ratios, so float precision is sufficient.
func (p Prefix) AddressCount() float64 {
	if !p.IsValid() {
		return 0
	}
	hostBits := 32 - p.Bits()
	if p.Is6() {
		hostBits = 128 - p.Bits()
	}
	return math.Exp2(float64(hostBits))
}

// NthSubprefix returns the i-th subprefix of p at length newBits. It is the
// primitive the synthetic generator uses to carve allocations out of RIR
// blocks. It returns an error when newBits is not deeper than p's length,
// when the family cannot express newBits, or when i is out of range.
func (p Prefix) NthSubprefix(newBits int, i uint64) (Prefix, error) {
	if !p.IsValid() {
		return Prefix{}, fmt.Errorf("netx: NthSubprefix of invalid prefix")
	}
	max := 32
	if p.Is6() {
		max = 128
	}
	if newBits <= p.Bits() || newBits > max {
		return Prefix{}, fmt.Errorf("netx: bad subprefix length %d for %s", newBits, p)
	}
	span := newBits - p.Bits()
	if span < 64 && i >= uint64(1)<<span {
		return Prefix{}, fmt.Errorf("netx: subprefix index %d out of range for %s/%d", i, p, newBits)
	}
	addr := p.Addr()
	if addr.Is4() {
		v := uint32(be32(addr.As4()))
		v |= uint32(i) << (32 - newBits)
		a4 := [4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
		return PrefixFrom(netip.AddrFrom4(a4), newBits)
	}
	a16 := addr.As16()
	// Set the subprefix index into bits [p.Bits(), newBits).
	setBits(&a16, p.Bits(), newBits, i)
	return PrefixFrom(netip.AddrFrom16(a16), newBits)
}

func be32(b [4]byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// setBits writes the low (to-from) bits of v into bit positions [from, to)
// of the 16-byte address, where bit 0 is the most significant bit.
func setBits(a *[16]byte, from, to int, v uint64) {
	width := to - from
	for i := 0; i < width; i++ {
		bitPos := to - 1 - i // absolute bit index from MSB
		bit := (v >> uint(i)) & 1
		byteIdx := bitPos / 8
		mask := byte(1) << uint(7-bitPos%8)
		if bit == 1 {
			a[byteIdx] |= mask
		} else {
			a[byteIdx] &^= mask
		}
	}
}

// bitAt returns bit i (0 = most significant) of the address.
func bitAt(addr netip.Addr, i int) byte {
	if addr.Is4() {
		b := addr.As4()
		return (b[i/8] >> uint(7-i%8)) & 1
	}
	b := addr.As16()
	return (b[i/8] >> uint(7-i%8)) & 1
}
