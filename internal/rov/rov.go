// Package rov implements the Route Origin Validation classification of
// RFC 6811, extended with the finer-grained status taxonomy the paper
// uses (§2.3, §6.1): Invalid is split into "invalid ASN" and "invalid
// prefix length".
//
// The same algorithm classifies a route against both RPKI VRPs and IRR
// route objects; for IRR the registered prefix length acts as the max
// length (the paper's §6.1 "IRR validity" rule). Both internal/rpki and
// internal/irr therefore build their validators on this package.
package rov

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"manrsmeter/internal/netx"
)

// Status is the origin-validation outcome for one (prefix, origin) pair.
type Status uint8

const (
	// NotFound means no authorization covers the announced prefix.
	NotFound Status = iota
	// Valid means a covering authorization matches the origin AS and the
	// announced prefix is no more specific than its max length.
	Valid
	// InvalidASN means authorizations cover the prefix but none matches
	// the origin AS.
	InvalidASN
	// InvalidLength means at least one covering authorization matches the
	// origin AS, but the announced prefix is more specific than allowed.
	InvalidLength
)

// String returns the paper's nomenclature for the status.
func (s Status) String() string {
	switch s {
	case NotFound:
		return "NotFound"
	case Valid:
		return "Valid"
	case InvalidASN:
		return "Invalid"
	case InvalidLength:
		return "InvalidLength"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// IsInvalid reports whether s is either invalid variant.
func (s Status) IsInvalid() bool { return s == InvalidASN || s == InvalidLength }

// Authorization is one prefix-origin authorization: a validated ROA
// payload (VRP) in the RPKI case, or a route object in the IRR case.
type Authorization struct {
	Prefix netx.Prefix
	ASN    uint32
	// MaxLength is the longest announced prefix length the authorization
	// permits. For IRR route objects this equals Prefix.Bits().
	MaxLength int
}

// Covers reports whether the authorization's prefix covers p.
func (a Authorization) Covers(p netx.Prefix) bool { return a.Prefix.Covers(p) }

// Permits reports whether the authorization validates origin asn
// announcing p: it must cover p, match the ASN, and allow p's length.
func (a Authorization) Permits(p netx.Prefix, asn uint32) bool {
	return a.Covers(p) && a.ASN == asn && p.Bits() <= a.MaxLength
}

// Index is a queryable set of authorizations. The zero value is not
// usable; call NewIndex. Index is safe for concurrent readers once
// populated.
type Index struct {
	table *netx.Table[Authorization]
	count int
	// all is All's result, kept until the next Add.
	all atomic.Pointer[[]Authorization]
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{table: netx.NewTable[Authorization]()}
}

// Add inserts an authorization. Authorizations with an invalid prefix or
// a max length shorter than the prefix length are rejected.
func (ix *Index) Add(a Authorization) error {
	if !a.Prefix.IsValid() {
		return fmt.Errorf("rov: authorization with invalid prefix")
	}
	maxBits := 128 // 4-in-6 prefixes included: only IPv4 stops at 32
	if a.Prefix.Is4() {
		maxBits = 32
	}
	if a.MaxLength < a.Prefix.Bits() || a.MaxLength > maxBits {
		return fmt.Errorf("rov: authorization %s-%d (AS%d): max length out of range",
			a.Prefix, a.MaxLength, a.ASN)
	}
	ix.table.Insert(a.Prefix, a)
	ix.count++
	ix.all.Store(nil)
	return nil
}

// Grow makes room for n more authorizations, so that adding them
// allocates nothing.
func (ix *Index) Grow(n int) { ix.table.Grow(n) }

// Len returns the number of authorizations added.
func (ix *Index) Len() int { return ix.count }

// Covering returns every authorization whose prefix covers p, shortest
// prefix first.
func (ix *Index) Covering(p netx.Prefix) []Authorization {
	return ix.table.Covering(nil, p)
}

// Validate classifies origin asn announcing prefix p per RFC 6811 with
// the paper's refinement:
//
//	no covering authorization                 → NotFound
//	some covering auth permits (ASN+len)      → Valid
//	some covering auth matches ASN, none len  → InvalidLength
//	no covering auth matches ASN              → InvalidASN
func (ix *Index) Validate(p netx.Prefix, asn uint32) Status {
	// Few authorizations cover one prefix: collected on the stack, no allocation.
	var buf [8]Authorization
	return classify(ix.table.Covering(buf[:0], p), p, asn)
}

// Cursor validates a sequence of (prefix, origin) pairs against one
// index: Validate, with the table search of netx.Cursor, so pairs in
// ascending prefix order merge with the index instead of each searching
// it. A nil index's cursor answers NotFound. A cursor is one
// goroutine's; the index must not be added to while it is in use.
type Cursor struct {
	table *netx.Table[Authorization]
	c     netx.Cursor[Authorization]
	// Few authorizations cover one prefix: collected here, no allocation.
	buf [8]Authorization
}

// Cursor returns a cursor over ix.
func (ix *Index) Cursor() Cursor {
	if ix == nil {
		return Cursor{}
	}
	return Cursor{table: ix.table, c: ix.table.Cursor()}
}

// Validate is Index.Validate.
func (c *Cursor) Validate(p netx.Prefix, asn uint32) Status {
	if c.table == nil {
		return NotFound
	}
	return classify(c.c.Covering(c.buf[:0], p), p, asn)
}

// classify is Validate's verdict given the authorizations covering p.
func classify(covering []Authorization, p netx.Prefix, asn uint32) Status {
	if len(covering) == 0 {
		return NotFound
	}
	asnMatch := false
	for _, a := range covering {
		if a.ASN != asn {
			continue
		}
		if p.Bits() <= a.MaxLength {
			return Valid
		}
		asnMatch = true
	}
	if asnMatch {
		return InvalidLength
	}
	return InvalidASN
}

// ValidateLinear is the brute-force reference implementation used by the
// ablation benchmark and by property tests: it scans every authorization
// instead of using the sorted table.
func (ix *Index) ValidateLinear(p netx.Prefix, asn uint32) Status {
	var covering []Authorization
	ix.table.Walk(func(_ netx.Prefix, vals []Authorization) bool {
		for _, a := range vals {
			if a.Covers(p) {
				covering = append(covering, a)
			}
		}
		return true
	})
	return classify(covering, p, asn)
}

// All returns every authorization, ordered by prefix then ASN then max
// length — a stable order for snapshots and diffs. Walk already gives
// prefix order; the sort runs only when some prefix's authorizations
// were added out of (ASN, max length) order. The slice is made once and
// shared by every call until the next Add (an index shared by many
// dates, like a world's IRR, lists its authorizations once): callers
// must not modify it.
func (ix *Index) All() []Authorization {
	if all := ix.all.Load(); all != nil {
		return *all
	}
	out := make([]Authorization, 0, ix.count)
	ix.table.Walk(func(_ netx.Prefix, vals []Authorization) bool {
		out = append(out, vals...)
		return true
	})
	byKey := func(a, b Authorization) int {
		if c := a.Prefix.Compare(b.Prefix); c != 0 {
			return c
		}
		if c := cmp.Compare(a.ASN, b.ASN); c != 0 {
			return c
		}
		return cmp.Compare(a.MaxLength, b.MaxLength)
	}
	if !slices.IsSortedFunc(out, byKey) {
		slices.SortFunc(out, byKey)
	}
	ix.all.Store(&out)
	return out
}
