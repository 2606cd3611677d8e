// Copyright (c) 2016 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import (
	"encoding/binary"
	"math/bits"
)

// scalarMinusOneBytes is l - 1 in little endian.
var scalarMinusOneBytes = [32]byte{236, 211, 245, 92, 26, 99, 18, 88, 214, 156, 247, 162, 222, 249, 222, 20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 16}

// isReduced returns whether the given scalar in 32-byte little endian encoded
// form is reduced modulo l.
func isReduced(s []byte) bool {
	if len(s) != 32 {
		return false
	}

	for i := len(s) - 1; i >= 0; i-- {
		switch {
		case s[i] > scalarMinusOneBytes[i]:
			return false
		case s[i] < scalarMinusOneBytes[i]:
			return true
		}
	}
	return true
}

// signedRadix16 is upstream's (*Scalar).signedRadix16 over a scalar's
// 32-byte little-endian encoding.
func signedRadix16(b *[32]byte) [64]int8 {
	if b[31] > 127 {
		panic("scalar has high bit set illegally")
	}

	var digits [64]int8

	// Compute unsigned radix-16 digits:
	for i := 0; i < 32; i++ {
		digits[2*i] = int8(b[i] & 15)
		digits[2*i+1] = int8((b[i] >> 4) & 15)
	}

	// Recenter coefficients:
	for i := 0; i < 63; i++ {
		carry := (digits[i] + 8) >> 4
		digits[i] -= carry << 4
		digits[i+1] += carry
	}

	return digits
}

// The rest of this file is not copied.

// signedRadix256 returns digits d in [−128, 127] with Σ d[i]·256^i = b,
// for b below 2²⁵⁴, as every scalar reduced mod ℓ is.
func signedRadix256(b *[32]byte) [32]int8 {
	var digits [32]int8
	carry := 0
	for i, x := range b {
		d := int(x) + carry
		carry = (d + 128) >> 8
		digits[i] = int8(d - carry<<8)
	}
	if carry != 0 {
		panic("edwards25519: scalar out of range for radix 256")
	}
	return digits
}

// scalar is an integer mod ℓ in 64-bit little-endian limbs.
type scalar [4]uint64

// order is ℓ and barrettMu is ⌊2⁵¹²/ℓ⌋, in 64-bit little-endian limbs.
var (
	order     = [5]uint64{0x5812631a5cf5d3ed, 0x14def9dea2f79cd6, 0, 0x1000000000000000, 0}
	barrettMu = [5]uint64{0xed9ce5a30a2c131b, 0x2106215d086329a7, 0xffffffffffffffeb, 0xffffffffffffffff, 0xf}
)

// bytes returns s's 32-byte little-endian encoding.
func (s scalar) bytes() (b [32]byte) {
	for i, l := range s {
		binary.LittleEndian.PutUint64(b[8*i:], l)
	}
	return b
}

// reduceDigest returns a 64-byte little-endian integer mod ℓ.
func reduceDigest(d []byte) scalar {
	var x [8]uint64
	for i := range x {
		x[i] = binary.LittleEndian.Uint64(d[8*i:])
	}
	return reduceWide(&x)
}

// mulAdd returns a·b + c mod ℓ for a, b and c below 2²⁵⁶.
func mulAdd(a, b, c *scalar) scalar {
	var x [8]uint64
	mulLimbs(x[:], a[:], b[:])
	cw := [8]uint64{c[0], c[1], c[2], c[3]}
	var carry uint64
	for i := range x {
		x[i], carry = bits.Add64(x[i], cw[i], carry)
	}
	return reduceWide(&x) // a·b + c < 2⁵¹²: no carry out
}

// reduceWide returns x mod ℓ by Barrett reduction in base 2⁶⁴ (HAC
// 14.42, k = 4). q = ⌊⌊x/2¹⁹²⌋·μ/2³²⁰⌋ undershoots ⌊x/ℓ⌋ by at most one
// here, not HAC's two, since 2⁵¹²/ℓ exceeds μ by only 0.225: x − q·ℓ,
// taken mod 2³²⁰, is below 2ℓ and needs at most one subtraction of ℓ.
func reduceWide(x *[8]uint64) scalar {
	var q, ql [10]uint64
	mulLimbs(q[:], x[3:], barrettMu[:])
	mulLimbs(ql[:9], q[5:], order[:4])
	var r, t [5]uint64
	var borrow uint64
	for i := range r {
		r[i], borrow = bits.Sub64(x[i], ql[i], borrow)
	}
	borrow = 0
	for i := range t {
		t[i], borrow = bits.Sub64(r[i], order[i], borrow)
	}
	if borrow == 0 {
		r = t
	}
	return scalar(r[:4])
}

// mulLimbs sets out, of length len(a)+len(b), to a·b.
func mulLimbs(out, a, b []uint64) {
	clear(out)
	for i, ai := range a {
		var carry uint64
		for j, bj := range b {
			hi, lo := bits.Mul64(ai, bj)
			var c uint64
			lo, c = bits.Add64(lo, out[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			out[i+j], carry = lo, hi+c
		}
		out[i+len(b)] = carry
	}
}
