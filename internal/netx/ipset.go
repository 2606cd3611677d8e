package netx

import (
	"cmp"
	"slices"
)

// IPSet4 accumulates IPv4 address ranges and answers union-size and
// intersection queries with overlap handled correctly. The paper's
// address-space metrics (routed space per RIR, RPKI saturation, Eq. 7–8)
// need exactly this: summing prefix sizes naively double-counts
// de-aggregated announcements.
//
// The zero value is an empty set ready for use. IPSet4 is not safe for
// concurrent mutation.
type IPSet4 struct {
	ranges []r4 // normalized: sorted, non-overlapping, non-adjacent
	dirty  []r4
}

type r4 struct{ lo, hi uint64 } // [lo, hi) in uint32 address space

// AddPrefix inserts an IPv4 prefix into the set. Non-IPv4 prefixes are
// ignored (the paper's space metrics are IPv4-only).
func (s *IPSet4) AddPrefix(p Prefix) {
	if !p.IsValid() || !p.Is4() {
		return
	}
	lo := p.hi >> 32
	hi := lo + uint64(p.AddressCount())
	// A range that starts inside or just past the last one added joins
	// it: prefixes added in ascending order keep only disjoint ranges.
	if n := len(s.dirty); n > 0 && lo >= s.dirty[n-1].lo && lo <= s.dirty[n-1].hi {
		s.dirty[n-1].hi = max(s.dirty[n-1].hi, hi)
		return
	}
	s.dirty = append(s.dirty, r4{lo, hi})
}

func (s *IPSet4) normalize() {
	if len(s.dirty) == 0 {
		return
	}
	all := append(s.ranges, s.dirty...)
	s.dirty = nil
	byLo := func(a, b r4) int { return cmp.Compare(a.lo, b.lo) }
	if !slices.IsSortedFunc(all, byLo) {
		slices.SortFunc(all, byLo)
	}
	out := all[:0]
	for _, r := range all {
		if n := len(out); n > 0 && r.lo <= out[n-1].hi {
			if r.hi > out[n-1].hi {
				out[n-1].hi = r.hi
			}
			continue
		}
		out = append(out, r)
	}
	s.ranges = out
}

// Size returns the number of addresses in the set.
func (s *IPSet4) Size() uint64 {
	s.normalize()
	var n uint64
	for _, r := range s.ranges {
		n += r.hi - r.lo
	}
	return n
}

// IntersectSize returns the number of addresses present in both sets.
func (s *IPSet4) IntersectSize(o *IPSet4) uint64 {
	s.normalize()
	o.normalize()
	var n uint64
	i, j := 0, 0
	for i < len(s.ranges) && j < len(o.ranges) {
		a, b := s.ranges[i], o.ranges[j]
		lo := max64(a.lo, b.lo)
		hi := min64(a.hi, b.hi)
		if lo < hi {
			n += hi - lo
		}
		if a.hi < b.hi {
			i++
		} else {
			j++
		}
	}
	return n
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
