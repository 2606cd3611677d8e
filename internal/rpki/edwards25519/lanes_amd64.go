//go:build amd64 && !purego

package edwards25519

import (
	"unsafe"

	"manrsmeter/internal/rpki/edwards25519/field"
)

// The eight-lane kernel runs eight point sums side by side on AVX-512
// IFMA: lanes_amd64.s does the field and point arithmetic, this file the
// digit walk, picking each lane's table entry, and the transposition of
// the sums out.

// laneElem is a field element in each of eight lanes, limb-major: e[i][l]
// is limb i of lane l, radix 2⁵¹ as in field.Element.
type laneElem [5][8]uint64

// laneState is what laneAdd and laneDouble read and write, at the
// offsets lanes_amd64.s names: the sum in extended coordinates, the
// affine entry being added and scratch.
type laneState struct {
	x, y, z, t           laneElem
	yPlusX, yMinusX, t2d laneElem
	_                    [8]laneElem
}

// laneAdd sets the sum to sum + q[l] in each lane l, or to sum − q[l]
// where bit l of neg is set.
//
//go:noescape
func laneAdd(s *laneState, q *[8]*affineCached, neg uint64)

// laneDouble sets the sum to twice itself in each lane.
//
//go:noescape
func laneDouble(s *laneState)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (lo uint32)

// lanesSupported reports whether this CPU has AVX-512F and AVX-512 IFMA
// and the OS saves the opmask and ZMM registers (XCR0 bits 1, 2, 5, 6
// and 7).
func lanesSupported() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(1<<27) == 0 { // OSXSAVE
		return false
	}
	if xgetbv()&0xe6 != 0xe6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<16) != 0 && b&(1<<21) != 0 // AVX512F, AVX512IFMA
}

// identityEntry is the affine entry of the identity, (1, 1, 0): adding
// it leaves a lane's point unchanged, in new projective coordinates.
var identityEntry = affineCached{YplusX: *new(field.Element).One(), YminusX: *new(field.Element).One()}

// reset sets the sum to the identity (0, 1, 1, 0) in every lane.
func (s *laneState) reset() {
	clear(s.x[:])
	clear(s.t[:])
	for _, e := range []*laneElem{&s.y, &s.z} {
		clear(e[:])
		e[0] = [8]uint64{1, 1, 1, 1, 1, 1, 1, 1}
	}
}

// add adds d[l]·Q_l in each lane l, where rows[l] starts with Q_l, 2Q_l,
// … up to |d[l]|·Q_l; a lane whose digit is zero adds the identity and
// reads no row.
func (s *laneState) add(rows *[8][]affineCached, d *[8]int8) {
	var q [8]*affineCached
	var neg uint64
	for l, dl := range d {
		switch {
		case dl > 0:
			q[l] = &rows[l][dl-1]
		case dl < 0:
			q[l] = &rows[l][-int(dl)-1]
			neg |= 1 << l
		default:
			q[l] = &identityEntry
		}
	}
	laneAdd(s, &q, neg)
}

// addBase adds Σ d[l][i]·256^i·B in each lane l on the wide table.
func (s *laneState) addBase(d *[8][32]int8) {
	w := wideTable()
	var rows [8][]affineCached
	var col [8]int8
	for i := range 32 {
		for l := range 8 {
			rows[l] = w[128*i : 128*i+128]
			col[l] = d[l][i]
		}
		s.add(&rows, &col)
	}
}

// points transposes the eight sums into pts, which must hold eight.
func (s *laneState) points(pts []Point) {
	for l := range pts[:8] {
		p := &pts[l]
		x, y, z, t := limbs(&p.x), limbs(&p.y), limbs(&p.z), limbs(&p.t)
		for i := range 5 {
			x[i], y[i], z[i], t[i] = s.x[i][l], s.y[i][l], s.z[i][l], s.t[i][l]
		}
	}
}

// limbs views a field element as its five radix-2⁵¹ limbs.
func limbs(e *field.Element) *[5]uint64 {
	return (*[5]uint64)(unsafe.Pointer(e))
}

// verifyLanes sets pts[l] = [s_l]B + [k_l](−A_l) for eight checks, the
// sum verifySum computes, on the same schedule: the odd radix-16 digits
// of k on each key's table, four doublings, the even digits, then the
// radix-2⁸ digits of s on the wide table. A lane whose digits are all
// zero may have a nil key.
func verifyLanes(pts []Point, keys *[8]*PublicKey, k *[8][64]int8, sd *[8][32]int8) {
	s := new(laneState)
	s.reset()
	var rows [8][]affineCached
	var col [8]int8
	kPass := func(first int) {
		for i := first; i < 64; i += 2 {
			for l, key := range keys {
				col[l] = k[l][i]
				if col[l] != 0 {
					rows[l] = key.table[8*(i/2) : 8*(i/2)+8]
				}
			}
			s.add(&rows, &col)
		}
	}
	kPass(1)
	for range 4 {
		laneDouble(s)
	}
	kPass(0)
	s.addBase(sd)
	s.points(pts)
}

// signLanes sets pts[l] = [r_l]B for eight nonces given by their radix-2⁸
// digits, the sum SignBatch's scalar path computes.
func signLanes(pts []Point, r *[8][32]int8) {
	s := new(laneState)
	s.reset()
	s.addBase(r)
	s.points(pts)
}
