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
	"math"
	"sort"

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
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hegemony != out[j].Hegemony {
			return out[i].Hegemony > out[j].Hegemony
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}

// Accumulator computes the same scores as Scores/Ranked while reusing
// all internal state across destinations, so a worker scoring many
// prefix-origin pairs performs almost no per-destination allocation.
//
// The equivalence rests on the indicator vectors being 0/1: the trimmed
// mean of a 0/1 vector depends only on the count of ones c and the
// vector length n, so per-AS crossing counts are sufficient. Reset
// starts a destination, AddPath folds in one vantage path (consumed
// immediately; the caller may reuse the slice), and Ranked returns the
// same ordering Ranked(Scores(paths, trim)) would. Not safe for
// concurrent use; give each worker its own.
type Accumulator struct {
	ver  int
	n    int // non-empty paths this destination
	ents map[uint32]accEntry
	// touched lists the ASes on this destination's paths, so Ranked does
	// not walk every AS the worker has ever scored.
	touched []uint32
	out     []Score
}

type accEntry struct {
	cnt, ver, pathSeq int
}

// NewAccumulator returns an empty Accumulator.
func NewAccumulator() *Accumulator {
	// ver starts past the zero accEntry's, so an AS never seen reads as
	// belonging to an earlier destination.
	return &Accumulator{ver: 1, ents: make(map[uint32]accEntry)}
}

// Reset starts a new destination, discarding all accumulated paths.
func (a *Accumulator) Reset() {
	a.ver++
	a.n = 0
	a.touched = a.touched[:0]
}

// AddPath folds in one vantage path (vantage-first, origin-last). Empty
// paths are ignored, the vantage AS is excluded from its own path, and
// prepending duplicates count once — exactly as Scores.
func (a *Accumulator) AddPath(p []uint32) {
	if len(p) == 0 {
		return
	}
	a.n++
	seq := a.n
	for i, asn := range p {
		if i == 0 && len(p) > 1 {
			continue
		}
		e := a.ents[asn]
		if e.ver != a.ver {
			e = accEntry{ver: a.ver}
			a.touched = append(a.touched, asn)
		}
		if e.pathSeq == seq {
			continue
		}
		e.pathSeq = seq
		e.cnt++
		a.ents[asn] = e
	}
}

// Ranked returns the destination's scores sorted by descending hegemony,
// ties by ascending ASN — identical to Ranked(Scores(paths, trim)). The
// returned slice is reused by the next Ranked call on this Accumulator.
func (a *Accumulator) Ranked(trim float64) []Score {
	out := a.out[:0]
	if a.n == 0 {
		return out
	}
	for _, asn := range a.touched {
		if h := indicatorTrimmedMean(a.ents[asn].cnt, a.n, trim); h > 0 {
			out = append(out, Score{ASN: asn, Hegemony: h})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hegemony != out[j].Hegemony {
			return out[i].Hegemony > out[j].Hegemony
		}
		return out[i].ASN < out[j].ASN
	})
	a.out = out
	return out
}

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
