// Package netx provides the address and prefix substrate used throughout
// manrsmeter: a compact Prefix representation for IPv4 and IPv6, parsing
// and formatting helpers, and a sorted prefix table (see trie.go)
// supporting the covering-entry lookups required by RFC 6811 route
// origin validation and by IRR route-object matching.
//
// A Prefix is a plain value: the masked address as two 64-bit halves,
// the length and the address width, with no pointer in it. It is
// comparable (usable as a map key), and ordering and containment are
// integer operations. Every struct that embeds one (originations,
// dataset rows, authorizations) stays pointer-free, so the garbage
// collector allocates their slices in no-scan spans and never walks
// them. Parsing and formatting go through net/netip.
package netx

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"strings"
)

// Prefix is a validated, masked IP prefix. The zero value is invalid.
type Prefix struct {
	// hi and lo hold the masked address, most significant bit first: an
	// IPv4 address sits in the top 32 bits of hi.
	hi, lo uint64
	bits   uint8
	// width is the address width: 32 for IPv4, 128 for IPv6 (4-in-6
	// included), 0 for the invalid zero value.
	width uint8
}

// ParsePrefix parses s as an IP prefix in CIDR notation ("192.0.2.0/24",
// "2001:db8::/32"). The host bits must not necessarily be zero; they are
// masked away, matching how routing databases canonicalize entries.
func ParsePrefix(s string) (Prefix, error) {
	p, err := netip.ParsePrefix(strings.TrimSpace(s))
	if err != nil {
		return Prefix{}, fmt.Errorf("netx: parse prefix %q: %w", s, err)
	}
	return fromNetip(p.Addr(), p.Bits()), nil
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
	if !netip.PrefixFrom(addr, bits).IsValid() {
		return Prefix{}, fmt.Errorf("netx: invalid prefix %s/%d", addr, bits)
	}
	return fromNetip(addr, bits), nil
}

// fromNetip converts a valid address and length, masking host bits.
func fromNetip(addr netip.Addr, bits int) Prefix {
	p := Prefix{bits: uint8(bits), width: uint8(addr.BitLen())}
	if addr.Is4() {
		a := addr.As4()
		p.hi = uint64(binary.BigEndian.Uint32(a[:])) << 32
	} else {
		a := addr.As16()
		p.hi, p.lo = binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(a[8:])
	}
	mhi, mlo := mask(p.bits)
	p.hi &= mhi
	p.lo &= mlo
	return p
}

// mask returns the network mask of a length-bits prefix as two halves.
func mask(bits uint8) (hi, lo uint64) {
	hi = ^(^uint64(0) >> bits)
	if bits > 64 {
		lo = ^(^uint64(0) >> (bits - 64))
	}
	return hi, lo
}

// Addr returns the (masked) network address.
func (p Prefix) Addr() netip.Addr {
	switch p.width {
	case 32:
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], uint32(p.hi>>32))
		return netip.AddrFrom4(a)
	case 128:
		var a [16]byte
		binary.BigEndian.PutUint64(a[:8], p.hi)
		binary.BigEndian.PutUint64(a[8:], p.lo)
		return netip.AddrFrom16(a)
	}
	return netip.Addr{}
}

// Bits returns the prefix length, or -1 for the zero value.
func (p Prefix) Bits() int {
	if p.width == 0 {
		return -1
	}
	return int(p.bits)
}

// IsValid reports whether p is a valid, non-zero prefix.
func (p Prefix) IsValid() bool { return p.width != 0 }

// Is4 reports whether p is an IPv4 prefix.
func (p Prefix) Is4() bool { return p.width == 32 }

// Is6 reports whether p is an IPv6 (non-4-mapped) prefix.
func (p Prefix) Is6() bool { return p.width == 128 && (p.hi != 0 || p.lo>>32 != 0xffff) }

// String returns CIDR notation, or "invalid Prefix" for the zero value.
func (p Prefix) String() string {
	if !p.IsValid() {
		return "invalid Prefix"
	}
	return netip.PrefixFrom(p.Addr(), int(p.bits)).String()
}

// AppendTo appends String's text to b without allocating a string.
func (p Prefix) AppendTo(b []byte) []byte {
	if !p.IsValid() {
		return append(b, "invalid Prefix"...)
	}
	return netip.PrefixFrom(p.Addr(), int(p.bits)).AppendTo(b)
}

// Halves returns p's masked network address as two 64-bit halves, most
// significant bit first; an IPv4 address sits in the top 32 bits of hi.
// With Bits and Is4 it is the whole prefix, for codecs that store
// prefixes as integers.
func (p Prefix) Halves() (hi, lo uint64) { return p.hi, p.lo }

// PrefixFromHalves inverts Halves: the IPv4 (is4) or 128-bit prefix of
// length bits at the address hi, lo. It fails when bits is out of range
// for the family or the address has bits set past the length (an IPv4
// address beyond the top 32 bits of hi), so a decoder rejects an
// unmasked encoding instead of masking it.
func PrefixFromHalves(hi, lo uint64, bits int, is4 bool) (Prefix, error) {
	width := 128
	if is4 {
		width = 32
	}
	if bits < 0 || bits > width {
		return Prefix{}, fmt.Errorf("prefix length %d out of range", bits)
	}
	p := Prefix{hi: hi, lo: lo, bits: uint8(bits), width: uint8(width)}
	if mhi, mlo := mask(p.bits); hi&^mhi != 0 || lo&^mlo != 0 {
		p.hi, p.lo = hi&mhi, lo&mlo
		return Prefix{}, fmt.Errorf("prefix %s has host bits set", p)
	}
	return p, nil
}

// Covers reports whether p contains o entirely: o's network address lies
// inside p and o is at least as specific as p. A prefix covers itself.
// IPv4 prefixes and 128-bit prefixes (4-in-6 included) never cover one
// another.
func (p Prefix) Covers(o Prefix) bool {
	if p.width == 0 || p.width != o.width || p.bits > o.bits {
		return false
	}
	mhi, mlo := mask(p.bits)
	return o.hi&mhi == p.hi && o.lo&mlo == p.lo
}

// Compare orders prefixes first by family (IPv4 before IPv6), then by
// network address, then by length (shorter first). It is suitable for
// slices.SortFunc. In this order every prefix precedes the prefixes it
// covers, and those follow it contiguously.
func (p Prefix) Compare(o Prefix) int {
	if c := cmp.Compare(p.width, o.width); c != 0 {
		return c
	}
	if c := cmp.Compare(p.hi, o.hi); c != 0 {
		return c
	}
	if c := cmp.Compare(p.lo, o.lo); c != 0 {
		return c
	}
	return cmp.Compare(p.bits, o.bits)
}

// AddressCount returns the number of addresses spanned by p as a float64.
// IPv4 /0 spans 2^32; IPv6 spans up to 2^128, which exceeds uint64, hence
// the float return. Address-space "saturation" metrics in the paper are
// ratios, so float precision is sufficient.
func (p Prefix) AddressCount() float64 {
	if !p.IsValid() {
		return 0
	}
	return math.Exp2(float64(p.width - p.bits))
}

// NthSubprefix returns the i-th subprefix of p at length newBits. It is the
// primitive the synthetic generator uses to carve allocations out of RIR
// blocks. It returns an error when newBits is not deeper than p's length,
// when the family cannot express newBits, or when i is out of range.
func (p Prefix) NthSubprefix(newBits int, i uint64) (Prefix, error) {
	if !p.IsValid() {
		return Prefix{}, fmt.Errorf("netx: NthSubprefix of invalid prefix")
	}
	if newBits <= p.Bits() || newBits > int(p.width) {
		return Prefix{}, fmt.Errorf("netx: bad subprefix length %d for %s", newBits, p)
	}
	span := newBits - p.Bits()
	if span < 64 && i >= uint64(1)<<span {
		return Prefix{}, fmt.Errorf("netx: subprefix index %d out of range for %s/%d", i, p, newBits)
	}
	// The index fills bits [p.Bits(), newBits), which p's mask left zero.
	q := Prefix{hi: p.hi, lo: p.lo, bits: uint8(newBits), width: p.width}
	if shift := 128 - newBits; shift >= 64 {
		q.hi |= i << (shift - 64)
	} else {
		q.hi |= i >> (64 - shift)
		q.lo |= i << shift
	}
	return q, nil
}
