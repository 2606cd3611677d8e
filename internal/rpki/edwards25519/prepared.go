// Package edwards25519 signs and verifies Ed25519 signatures in batches.
// Both ends use one process-wide table of B, 32 × 128 affine multiples
// for signed radix-2⁸ digits, so [s]B is at most 32 table additions and no
// doubling. A prepared public key carries a table of −A in Go's radix-16
// layout, so a check of [S]B + [k](−A) = R is at most 96 table additions and
// four doublings, where crypto/ed25519 pays about 256 doublings. A batch
// encodes its points with one field inversion (Montgomery's trick).
//
// On amd64 CPUs with AVX-512F and AVX-512 IFMA, and an OS that saves ZMM
// state, batches run eight checks or signatures per instruction stream
// on a lane kernel (lanes_amd64.s) that computes the scalar path's
// points with the same formulas on the same schedule; Kernel names the
// one selected. Measured on two vCPUs of a Sapphire Rapids VM (go test
// -bench, batches of 64 over 120-byte messages, medians of 10 runs), a
// check costs 5.1 µs on the lane kernel and 17 µs on the scalar path
// (BenchmarkVerify in internal/rpki), a signature 3.2 µs and 7.3 µs
// (BenchmarkSign); crypto/ed25519 takes about 60 and 30 µs.
//
// The field arithmetic, the point types and formulas and the radix-16
// recoding are copied from the Go standard library's
// crypto/internal/fips140/edwards25519 (Go 1.24), trimmed to what is
// used; LICENSE is the Go license they ship under. This file is not
// copied. Lookups are variable-time, and so is signing: see SignBatch.
package edwards25519

import (
	"crypto/sha512"
	"sync"

	"manrsmeter/internal/rpki/edwards25519/field"
)

// PublicKey is an Ed25519 public key prepared for verification. A table
// costs about 30 KB.
type PublicKey struct {
	a     [32]byte
	table [32 * 8]affineCached // table[8i+j] = (j+1)·256^i·(−A)
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
	fixedBaseTable(k.table[:], 8, a.Negate(a))
	return k, nil
}

// wideTable is the fixed-base table of B, wide[128i+j] = (j+1)·256^i·B,
// about 480 KB, built once per process at first use.
var wideTable = sync.OnceValue(func() *[32 * 128]affineCached {
	t := new([32 * 128]affineCached)
	fixedBaseTable(t[:], 128, NewGeneratorPoint())
	return t
})

// fixedBaseTable sets t[n·i+j] to (j+1)·256^i·p in affine form, for n
// multiples per row, paying one field inversion for the whole table.
func fixedBaseTable(t []affineCached, n int, p *Point) {
	pts := make([]Point, len(t))
	var cached projCached
	var sum projP1xP1
	q := new(Point).Set(p)
	for i := 0; i < len(t); i += n {
		cached.FromP3(q)
		pts[i].Set(q)
		for j := i + 1; j < i+n; j++ {
			pts[j].fromP1xP1(sum.Add(&pts[j-1], &cached))
		}
		for range 8 {
			q.Add(q, q)
		}
	}
	zInv := make([]field.Element, len(pts))
	invertZ(pts, zInv) // multiples of a curve point: no Z is zero
	for i := range pts {
		pt, e := &pts[i], &t[i]
		e.YplusX.Multiply(e.YplusX.Add(&pt.y, &pt.x), &zInv[i])
		e.YminusX.Multiply(e.YminusX.Subtract(&pt.y, &pt.x), &zInv[i])
		e.T2d.Multiply(e.T2d.Multiply(&pt.t, d2), &zInv[i])
	}
}

// invertZ sets zInv[i] = 1/pts[i].z with one field inversion. It reports
// false, and leaves zInv meaningless, if some Z is zero, which the
// complete addition formulas never produce from curve points.
func invertZ(pts []Point, zInv []field.Element) bool {
	// zInv[i] = z_0···z_{i−1}, then acc = 1/(z_0···z_i) walking down.
	var acc, zero field.Element
	acc.One()
	for i := range pts {
		zInv[i].Set(&acc)
		acc.Multiply(&acc, &pts[i].z)
	}
	if acc.Equal(&zero) == 1 {
		return false
	}
	acc.Invert(&acc)
	for i := len(pts) - 1; i >= 0; i-- {
		zInv[i].Multiply(&zInv[i], &acc)
		acc.Multiply(&acc, &pts[i].z)
	}
	return true
}

// encodeBatch returns the encodings of pts, sharing one field inversion;
// if invertZ refuses, each point is encoded on its own.
func encodeBatch(pts []Point) [][32]byte {
	if len(pts) == 0 {
		return nil
	}
	out := make([][32]byte, len(pts))
	zInv := make([]field.Element, len(pts))
	if !invertZ(pts, zInv) {
		for i := range pts {
			pts[i].bytes(&out[i])
		}
		return out
	}
	var x, y field.Element
	for i := range pts {
		x.Multiply(&pts[i].x, &zInv[i])
		y.Multiply(&pts[i].y, &zInv[i])
		copy(out[i][:], y.Bytes())
		out[i][31] |= byte(x.IsNegative() << 7)
	}
	return out
}

// useLanes is whether batches run on the eight-lane kernel: set once
// from the CPU, and cleared only by tests, to run the scalar path.
var useLanes = lanesSupported()

// Kernel names the point kernel batches run on: "ifma8", eight checks or
// signatures per instruction stream on amd64 CPUs with AVX-512F and
// AVX-512 IFMA, or "scalar".
func Kernel() string {
	if useLanes {
		return "ifma8"
	}
	return "scalar"
}

// forGroups calls f for each group of up to eight of n items, from lo on:
// lane l takes item at[l], and lanes past the end of a short group
// repeat its first item, whose results the caller discards.
func forGroups(n int, f func(lo, size int, at *[8]int)) {
	var at [8]int
	for lo := 0; lo < n; lo += 8 {
		size := min(8, n-lo)
		for l := range at {
			at[l] = lo
			if l < size {
				at[l] = lo + l
			}
		}
		f(lo, size, &at)
	}
}

// Check is one signature to verify: Sig over Message under Key.
type Check struct {
	Key          *PublicKey
	Message, Sig []byte
}

// VerifyBatch sets ok[i] to whether checks[i].Sig is a valid signature
// of checks[i].Message by checks[i].Key. It accepts exactly what
// crypto/ed25519.Verify accepts: a 64-byte signature with the top three
// bits of its last byte clear, a canonical S, and an R equal byte for
// byte to the encoding of [S]B + [k](−A), where k = SHA-512(R ‖ A ‖
// message) mod ℓ hashes A as it was given. Each check's point is
// computed on its own, eight at a time on the lane kernel; the batch
// shares only the inversion that encodes them.
func VerifyBatch(checks []Check, ok []bool) {
	pts := make([]Point, len(checks))
	kDigits := make([][64]int8, len(checks))
	sDigits := make([][32]int8, len(checks))
	h := sha512.New()
	var digest [64]byte
	for i, c := range checks {
		ok[i] = len(c.Sig) == 64 && c.Sig[63]&224 == 0 && isReduced(c.Sig[32:])
		if !ok[i] {
			continue
		}
		h.Reset()
		h.Write(c.Sig[:32])
		h.Write(c.Key.a[:])
		h.Write(c.Message)
		k := reduceDigest(h.Sum(digest[:0]))
		kBytes := k.bytes()
		kDigits[i] = signedRadix16(&kBytes)
		sDigits[i] = signedRadix256((*[32]byte)(c.Sig[32:]))
	}
	if useLanes {
		var lanePts [8]Point
		var keys [8]*PublicKey
		var k [8][64]int8
		var s [8][32]int8
		forGroups(len(checks), func(lo, n int, at *[8]int) {
			for l, i := range at {
				keys[l], k[l], s[l] = checks[i].Key, kDigits[i], sDigits[i]
			}
			verifyLanes(lanePts[:], &keys, &k, &s)
			copy(pts[lo:lo+n], lanePts[:n])
		})
	}
	for i := range checks {
		switch {
		case !ok[i]:
			pts[i].Set(identity)
		case !useLanes:
			pts[i].verifySum(checks[i].Key, kDigits[i], sDigits[i])
		}
	}
	for i, r := range encodeBatch(pts) {
		ok[i] = ok[i] && [32]byte(checks[i].Sig[:32]) == r
	}
}

// verifySum sets v = [s]B + [k](−A) from k's radix-16 digits on key's
// table and s's radix-2⁸ digits on the wide table of B.
func (v *Point) verifySum(key *PublicKey, kDigits [64]int8, sDigits [32]int8) {
	// As in upstream's ScalarBaseMult: the odd radix-16 digits first,
	// times 16, then the even ones.
	v.Set(identity)
	var sum projP1xP1
	for i := 1; i < 64; i += 2 {
		v.addMultiple(key.table[8*(i/2):], kDigits[i], &sum)
	}
	var p2 projP2
	p2.FromP3(v)
	for range 4 {
		p2.FromP1xP1(sum.Double(&p2))
	}
	v.fromP1xP1(&sum)
	for i := 0; i < 64; i += 2 {
		v.addMultiple(key.table[8*(i/2):], kDigits[i], &sum)
	}
	v.addBase(sDigits, &sum)
}

// addBase sets v += Σ d[i]·256^i·B on the wide table.
func (v *Point) addBase(d [32]int8, sum *projP1xP1) {
	w := wideTable()
	for i, di := range d {
		v.addMultiple(w[128*i:], di, sum)
	}
}

// addMultiple sets v += d·Q, where t starts with Q, 2Q, … up to |d|·Q,
// using sum as scratch.
func (v *Point) addMultiple(t []affineCached, d int8, sum *projP1xP1) {
	switch {
	case d > 0:
		v.fromP1xP1(sum.AddAffine(v, &t[d-1]))
	case d < 0:
		v.fromP1xP1(sum.SubAffine(v, &t[-int(d)-1]))
	}
}
