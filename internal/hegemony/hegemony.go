// Package hegemony implements the AS hegemony metric of Fontugne, Shah
// and Aben ("The (thin) bridges of AS connectivity: Measuring dependency
// using AS hegemony", PAM 2018), as used by the Internet Health Report
// and by the paper's MANRS preference score (§6.5).
//
// For a destination (a prefix-origin pair) observed from a set of vantage
// points, the hegemony of a transit AS is the trimmed mean — the top and
// bottom 10% of vantage points are discarded — of the indicator "this
// vantage point's path crosses the AS". The origin AS of a path is a
// trivial transit with hegemony 1; the vantage AS itself is excluded from
// its own path to reduce sampling bias, mirroring the original method.
package hegemony

import (
	"cmp"
	"math"
	"slices"

	"manrsmeter/internal/stats"
)

// DefaultTrim is the trimming fraction from the original paper.
const DefaultTrim = 0.1

// Scores computes per-AS hegemony for one destination from the AS paths
// observed at the vantage points. Each path runs vantage-first,
// origin-last ("path[0] is the monitor"). Empty paths are ignored. The
// result maps every AS that appears on at least one path (beyond the
// vantage position) to its hegemony in [0, 1]; ASes trimmed to zero are
// omitted.
func Scores(paths [][]uint32, trim float64) map[uint32]float64 {
	valid := paths[:0:0]
	for _, p := range paths {
		if len(p) > 0 {
			valid = append(valid, p)
		}
	}
	n := len(valid)
	if n == 0 {
		return nil
	}
	// Candidate transit ASes: everything except position 0 of each path.
	onPath := make(map[uint32][]float64) // AS → indicator per vantage
	for vi, p := range valid {
		seen := make(map[uint32]bool, len(p))
		for i, asn := range p {
			if i == 0 && len(p) > 1 {
				continue // exclude the vantage AS itself
			}
			if seen[asn] {
				continue // prepending duplicates count once
			}
			seen[asn] = true
			ind, ok := onPath[asn]
			if !ok {
				ind = make([]float64, n)
				onPath[asn] = ind
			}
			ind[vi] = 1
		}
	}
	scores := make(map[uint32]float64, len(onPath))
	for asn, ind := range onPath {
		s := stats.TrimmedMean(ind, trim)
		if s > 0 {
			scores[asn] = s
		}
	}
	return scores
}

// Score is one AS's hegemony toward a destination.
type Score struct {
	ASN      uint32
	Hegemony float64
}

// Ranked returns scores sorted by descending hegemony, ties by ascending
// ASN.
func Ranked(scores map[uint32]float64) []Score {
	out := make([]Score, 0, len(scores))
	for asn, h := range scores {
		out = append(out, Score{ASN: asn, Hegemony: h})
	}
	slices.SortFunc(out, func(x, y Score) int { return byRank(x.Hegemony, y.Hegemony, x.ASN, y.ASN) })
	return out
}

// byRank is the ranking order: descending hegemony, ties by ascending
// ASN.
func byRank(hx, hy float64, asnX, asnY uint32) int {
	if hx != hy {
		if hx > hy {
			return -1
		}
		return 1
	}
	return cmp.Compare(asnX, asnY)
}

// Accumulator computes the same scores as Scores/Ranked while reusing
// all internal state across destinations, so a worker scoring many
// prefix-origin pairs performs almost no per-destination allocation.
//
// The equivalence rests on the indicator vectors being 0/1: the trimmed
// mean of a 0/1 vector depends only on the count of ones c and the
// vector length n, so per-AS crossing counts are sufficient. Counting
// runs over dense slots, one per AS: AddIndexPath folds in a path
// already given as slots (an ihr build walks its route trees in
// interned CSR indexes), AddPath interns ASNs into slots first. Reset
// starts a destination, and Ranked returns the same ordering
// Ranked(Scores(paths, trim)) would. Paths are consumed immediately;
// the caller may reuse the slice. Not safe for concurrent use; give
// each worker its own.
type Accumulator struct {
	n     int32 // non-empty paths this destination
	slots []slotState
	asns  []uint32         // slot → ASN
	index map[uint32]int32 // ASN → slot, for AddPath; built on its first call
	// touched lists the slots on this destination's paths, so Ranked
	// and Reset do not walk every AS the worker has ever scored.
	touched []int32
	ranked  []rankedSlot
	out     []Score
}

// slotState is one AS's count on the current destination; last is the
// path that counted it last, so prepending duplicates count once. Reset
// zeroes the touched slots, so every other slot reads as zero.
type slotState struct {
	cnt, last int32
}

type rankedSlot struct {
	slot int32
	h    float64
}

// NewAccumulator returns an empty Accumulator that interns ASNs as
// AddPath meets them.
func NewAccumulator() *Accumulator { return NewIndexAccumulator(nil) }

// NewIndexAccumulator returns an Accumulator whose slot i is asns[i],
// for paths given as indexes into asns (AddIndexPath). asns is shared,
// never modified; an astopo.CSR's Intern.ASNs() is such a table.
func NewIndexAccumulator(asns []uint32) *Accumulator {
	return &Accumulator{asns: asns[:len(asns):len(asns)], slots: make([]slotState, len(asns))}
}

// Reset starts a new destination, discarding all accumulated paths.
func (a *Accumulator) Reset() {
	for _, s := range a.touched {
		a.slots[s] = slotState{}
	}
	a.n = 0
	a.touched = a.touched[:0]
}

// AddIndexPath folds in one vantage path given as slots (vantage-first,
// origin-last). Empty paths are ignored, the vantage AS is excluded from
// its own path, and prepending duplicates count once — exactly as
// Scores.
func (a *Accumulator) AddIndexPath(p []int32) {
	if len(p) == 0 {
		return
	}
	a.n++
	if len(p) > 1 {
		p = p[1:]
	}
	for _, s := range p {
		a.count(s)
	}
}

// AddPath is AddIndexPath for a path of ASNs: one symbol-table lookup
// per hop, and an insert only for an ASN the accumulator has not met.
func (a *Accumulator) AddPath(p []uint32) {
	if len(p) == 0 {
		return
	}
	if a.index == nil {
		a.index = make(map[uint32]int32, len(a.asns))
		for i, asn := range a.asns {
			a.index[asn] = int32(i)
		}
	}
	a.n++
	if len(p) > 1 {
		p = p[1:]
	}
	for _, asn := range p {
		s, ok := a.index[asn]
		if !ok {
			s = int32(len(a.asns))
			a.index[asn] = s
			a.asns = append(a.asns, asn)
			a.slots = append(a.slots, slotState{})
		}
		a.count(s)
	}
}

func (a *Accumulator) count(s int32) {
	e := &a.slots[s]
	if e.last == a.n {
		return
	}
	if e.cnt == 0 {
		a.touched = append(a.touched, s)
	}
	e.last = a.n
	e.cnt++
}

// Ranked returns the destination's scores sorted by descending hegemony,
// ties by ascending ASN — identical to Ranked(Scores(paths, trim)). The
// returned slice is reused by the next Ranked call on this Accumulator.
func (a *Accumulator) Ranked(trim float64) []Score {
	rs := a.ranked[:0]
	if a.n > 0 {
		for _, s := range a.touched {
			if h := indicatorTrimmedMean(int(a.slots[s].cnt), int(a.n), trim); h > 0 {
				rs = append(rs, rankedSlot{slot: s, h: h})
			}
		}
	}
	slices.SortFunc(rs, func(x, y rankedSlot) int { return byRank(x.h, y.h, a.asns[x.slot], a.asns[y.slot]) })
	out := a.out[:0]
	for _, r := range rs {
		out = append(out, Score{ASN: a.asns[r.slot], Hegemony: r.h})
	}
	a.ranked, a.out = rs, out
	return out
}

// RankedSlot returns the slot of the k-th score the last Ranked call
// returned: for an index accumulator, the AS's index.
func (a *Accumulator) RankedSlot(k int) int32 { return a.ranked[k].slot }

// indicatorTrimmedMean is stats.TrimmedMean specialized to a 0/1 vector
// with c ones among n entries: sorting places the n-c zeros first, so
// the trimmed window [k, n-k) holds max(0, (n-k)-max(k, n-c)) ones.
// Sums of 0/1 values are exact in float64, so the result is bit-equal
// to the general path.
func indicatorTrimmedMean(c, n int, trim float64) float64 {
	if trim <= 0 {
		return float64(c) / float64(n)
	}
	if trim >= 0.5 {
		trim = 0.49
	}
	k := int(math.Floor(trim * float64(n)))
	w := n - 2*k
	if w <= 0 {
		return float64(c) / float64(n)
	}
	lo := k
	if n-c > lo {
		lo = n - c
	}
	ones := (n - k) - lo
	if ones < 0 {
		ones = 0
	}
	return float64(ones) / float64(w)
}
