// Package edwards25519 verifies Ed25519 signatures under prepared public
// keys. Ed25519 verification checks [S]B + [k](−A) = R. crypto/ed25519
// computes that with a variable-base double-scalar multiplication, about
// 256 doublings per signature. A key that signs many objects can instead
// carry a fixed-base table for −A, laid out like the one Go keeps for the
// base point B, so that each check costs about 128 table additions and
// four doublings.
//
// The field arithmetic, the point types and formulas, the lookup-table
// layout and the radix-16 recoding are copied from the Go standard
// library's crypto/internal/fips140/edwards25519 (Go 1.24), trimmed to
// what verification reaches; LICENSE is the Go license they ship under.
// This file is not copied. Lookups here are variable-time: every input
// to verification is public.
package edwards25519

import (
	"bytes"
	"crypto/sha512"
	"math/big"
	"slices"
	"sync"

	"manrsmeter/internal/rpki/edwards25519/field"
)

// PublicKey is an Ed25519 public key prepared for verification. A table
// costs about 30 KB.
type PublicKey struct {
	a     [32]byte
	table [32]affineLookupTable // table[i].points[j] = (j+1)·256^i·(−A)
}

// NewPublicKey decodes pub exactly as crypto/ed25519 does, non-canonical
// encodings included, and builds its table. It fails where
// crypto/ed25519.Verify would reject every signature under pub: on a
// length other than 32 bytes or a point off the curve.
func NewPublicKey(pub []byte) (*PublicKey, error) {
	a, err := new(Point).SetBytes(pub)
	if err != nil {
		return nil, err
	}
	k := new(PublicKey)
	copy(k.a[:], pub)
	fixedBaseTable(&k.table, a.Negate(a))
	return k, nil
}

// basepointTable is the fixed-base table of B, built at first use.
var basepointTable = sync.OnceValue(func() *[32]affineLookupTable {
	t := new([32]affineLookupTable)
	fixedBaseTable(t, NewGeneratorPoint())
	return t
})

// fixedBaseTable sets t[i].points[j] to (j+1)·256^i·p in affine form. It
// pays one field inversion for all 256 entries (Montgomery's trick) where
// upstream's affineLookupTable.FromP3 pays one per entry.
func fixedBaseTable(t *[32]affineLookupTable, p *Point) {
	var pts [256]Point
	var cached projCached
	var sum projP1xP1
	q := new(Point).Set(p)
	for i := 0; i < 32; i++ {
		cached.FromP3(q)
		pts[8*i].Set(q)
		for j := 1; j < 8; j++ {
			pts[8*i+j].fromP1xP1(sum.Add(&pts[8*i+j-1], &cached))
		}
		for j := 0; j < 8; j++ {
			q.Add(q, q)
		}
	}

	// prefix[i] = z_0···z_{i−1}, then acc = 1/(z_0···z_{i}) walking down.
	var prefix [256]field.Element
	var acc, zInv field.Element
	acc.One()
	for i := range pts {
		prefix[i].Set(&acc)
		acc.Multiply(&acc, &pts[i].z)
	}
	acc.Invert(&acc)
	for i := len(pts) - 1; i >= 0; i-- {
		pt, e := &pts[i], &t[i/8].points[i%8]
		zInv.Multiply(&acc, &prefix[i])
		acc.Multiply(&acc, &pt.z)
		e.YplusX.Multiply(e.YplusX.Add(&pt.y, &pt.x), &zInv)
		e.YminusX.Multiply(e.YminusX.Subtract(&pt.y, &pt.x), &zInv)
		e.T2d.Multiply(e.T2d.Multiply(&pt.t, d2), &zInv)
	}
}

// Verify reports whether sig is a valid signature of message by k. It
// accepts exactly what crypto/ed25519.Verify accepts: a 64-byte signature
// with the top three bits of its last byte clear, a canonical S, and an
// R equal byte for byte to the encoding of [S]B + [k](−A), where k =
// SHA-512(R ‖ A ‖ message) mod ℓ hashes A as it was given.
func (k *PublicKey) Verify(message, sig []byte) bool {
	if len(sig) != 64 || sig[63]&224 != 0 || !isReduced(sig[32:]) {
		return false
	}
	h := sha512.New()
	h.Write(sig[:32])
	h.Write(k.a[:])
	h.Write(message)
	var digest [64]byte
	kDigits := signedRadix16(reduce(h.Sum(digest[:0])))
	sDigits := signedRadix16((*[32]byte)(sig[32:]))

	// As in upstream's ScalarBaseMult: the odd radix-16 digits first,
	// times 16, then the even ones, for both tables at once.
	b := basepointTable()
	v := new(Point).Set(identity)
	var sum projP1xP1
	for i := 1; i < 64; i += 2 {
		v.addMultiple(&b[i/2], sDigits[i], &sum)
		v.addMultiple(&k.table[i/2], kDigits[i], &sum)
	}
	var p2 projP2
	p2.FromP3(v)
	for range 4 {
		p2.FromP1xP1(sum.Double(&p2))
	}
	v.fromP1xP1(&sum)
	for i := 0; i < 64; i += 2 {
		v.addMultiple(&b[i/2], sDigits[i], &sum)
		v.addMultiple(&k.table[i/2], kDigits[i], &sum)
	}
	return bytes.Equal(sig[:32], v.Bytes())
}

// addMultiple sets v += d·Q, where t holds Q…8Q and −8 ≤ d ≤ 8, using sum
// as scratch.
func (v *Point) addMultiple(t *affineLookupTable, d int8, sum *projP1xP1) {
	switch {
	case d > 0:
		v.fromP1xP1(sum.AddAffine(v, &t.points[d-1]))
	case d < 0:
		v.fromP1xP1(sum.SubAffine(v, &t.points[-d-1]))
	}
}

// order is ℓ, the order of the prime-order subgroup.
var order = func() *big.Int {
	be := scalarMinusOneBytes
	slices.Reverse(be[:])
	n := new(big.Int).SetBytes(be[:])
	return n.Add(n, big.NewInt(1))
}()

// reduce returns a 64-byte little-endian integer mod ℓ, little-endian.
func reduce(digest []byte) *[32]byte {
	be := slices.Clone(digest)
	slices.Reverse(be)
	n := new(big.Int).SetBytes(be)
	var out [32]byte
	n.Mod(n, order).FillBytes(out[:])
	slices.Reverse(out[:])
	return &out
}
