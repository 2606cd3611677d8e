package netx

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Table maps prefixes of both families to values of type V. It supports
// the two lookup shapes routing-security validation needs:
//
//   - Covering: all entries whose prefix covers a query prefix (used by
//     RFC 6811 — "covering VRPs" — and by IRR route-object matching).
//   - Exact match.
//
// Table is one slice of (prefix, value) entries. Insert appends; the
// first read after an Insert sorts the slice by Prefix.Compare (stably,
// so the values of one prefix keep their insertion order) and links each
// distinct prefix to its nearest covering one. In Compare order a
// prefix's covering prefixes all precede it, so Covering is a binary
// search for the last prefix at or before the query and a climb along
// those links. A Cursor replaces the search with a step forward when
// queries come in ascending order.
//
// Table is not safe for concurrent mutation; any number of readers may
// run concurrently once inserting is done (the sort is done once, under
// a lock), which matches the snapshot-oriented access pattern of the
// analysis pipeline. An Insert after a read is allowed and sorts again.
type Table[V any] struct {
	ents   []tableEntry[V]
	sorted atomic.Bool // ents is sorted; keys, runs and n4 describe it
	mu     sync.Mutex

	// One run per distinct prefix, in order; the IPv4 runs are runs[:n4].
	// keys[i] is the high half of run i's prefix: a dense array the
	// search reads instead of the entries.
	runs []prefixRun
	keys []uint64
	n4   int
}

type tableEntry[V any] struct {
	p Prefix
	v V
}

type prefixRun struct {
	lo int32 // the run's first entry; it ends where the next run starts
	up int32 // index of the nearest covering run, -1 if none
}

// NewTable returns an empty table.
func NewTable[V any]() *Table[V] { return &Table[V]{} }

// Grow makes room for n more entries, so that inserting them allocates
// nothing.
func (t *Table[V]) Grow(n int) { t.ents = slices.Grow(t.ents, n) }

// Len returns the number of distinct prefixes stored.
func (t *Table[V]) Len() int {
	t.sort()
	return len(t.runs)
}

// Insert appends v to the value list at prefix p. Multiple values per
// prefix are kept in insertion order (e.g. several VRPs or route objects
// for the same prefix). Inserting an invalid prefix is a no-op returning
// false.
func (t *Table[V]) Insert(p Prefix, v V) bool {
	if !p.IsValid() {
		return false
	}
	t.ents = append(t.ents, tableEntry[V]{p, v})
	t.sorted.Store(false)
	return true
}

// sort orders the entries and rebuilds the runs over them.
func (t *Table[V]) sort() {
	if t.sorted.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sorted.Load() {
		return
	}
	// Entries often arrive in order (a relying party's sorted VRPs): a
	// stable sort of sorted entries leaves them as they are.
	if byPrefix := func(a, b tableEntry[V]) int { return a.p.Compare(b.p) }; !slices.IsSortedFunc(t.ents, byPrefix) {
		slices.SortStableFunc(t.ents, byPrefix)
	}
	t.runs, t.keys, t.n4 = slices.Grow(t.runs[:0], len(t.ents)), slices.Grow(t.keys[:0], len(t.ents)), 0
	var open []int32 // the runs covering the current one, outermost first
	for i, e := range t.ents {
		if i > 0 && t.ents[i-1].p == e.p {
			continue
		}
		for len(open) > 0 && !t.prefix(int(open[len(open)-1])).Covers(e.p) {
			open = open[:len(open)-1]
		}
		up := int32(-1)
		if len(open) > 0 {
			up = open[len(open)-1]
		}
		open = append(open, int32(len(t.runs)))
		t.runs = append(t.runs, prefixRun{lo: int32(i), up: up})
		t.keys = append(t.keys, e.p.hi)
		if e.p.width == 32 {
			t.n4 = len(t.runs)
		}
	}
	t.sorted.Store(true)
}

// prefix returns run i's prefix.
func (t *Table[V]) prefix(i int) Prefix { return t.ents[t.runs[i].lo].p }

// entries returns run i's entries.
func (t *Table[V]) entries(i int) []tableEntry[V] {
	end := len(t.ents)
	if i+1 < len(t.runs) {
		end = int(t.runs[i+1].lo)
	}
	return t.ents[t.runs[i].lo:end]
}

// family returns the runs of p's family: [0, n4) for IPv4, [n4, len)
// for 128-bit prefixes, none for the zero value.
func (t *Table[V]) family(p Prefix) (lo, hi int) {
	switch p.width {
	case 32:
		return 0, t.n4
	case 128:
		return t.n4, len(t.runs)
	}
	return 0, 0
}

// upper returns the first run in [lo, hi) after p, hi if none: a binary
// search over runs [lo, hi), all of p's family. A run is at or before p
// when its key is below p's high half, or equal to it and the run's
// prefix compares at or before p (written out here and in gallop: a
// method would not inline into these loops).
func (t *Table[V]) upper(p Prefix, lo, hi int) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if k := t.keys[m]; k < p.hi || k == p.hi && t.prefix(m).Compare(p) <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Exact returns a copy of the values stored at exactly prefix p, or nil.
func (t *Table[V]) Exact(p Prefix) []V {
	t.sort()
	lo, hi := t.family(p)
	i := t.upper(p, lo, hi) - 1
	if i < lo || t.prefix(i) != p {
		return nil
	}
	return appendValues(nil, t.entries(i))
}

func appendValues[V any](dst []V, ents []tableEntry[V]) []V {
	for _, e := range ents {
		dst = append(dst, e.v)
	}
	return dst
}

// Covering appends to dst the values of every stored prefix that covers p
// (including p itself if present), shortest prefix first. It returns the
// extended slice.
func (t *Table[V]) Covering(dst []V, p Prefix) []V {
	c := t.Cursor()
	return c.Covering(dst, p)
}

// Cursor answers Covering for a sequence of queries over one table. A
// query at or after the previous one in Compare order gallops forward
// from where the previous one stopped, so queries in ascending order
// cost an amortized step each instead of a binary search: a prefix-ordered
// walk merges with the table. Any other query (the first, a step back,
// or one in a family the cursor has passed) binary-searches its family.
// A cursor is one goroutine's; any number may read one table at once.
type Cursor[V any] struct {
	t    *Table[V]
	next int // runs[:next] of last's family are at or before last
	last Prefix
}

// Cursor returns a cursor over t, which must not be inserted into
// while the cursor is in use.
func (t *Table[V]) Cursor() Cursor[V] {
	t.sort()
	return Cursor[V]{t: t}
}

// Covering is Table.Covering.
func (c *Cursor[V]) Covering(dst []V, p Prefix) []V {
	t := c.t
	lo, hi := t.family(p)
	if c.last.width == p.width && c.next >= lo && p.Compare(c.last) >= 0 {
		c.next = t.gallop(p, c.next, hi)
	} else {
		c.next = t.upper(p, lo, hi)
	}
	c.last = p
	deepest := c.next - 1
	if deepest < lo {
		return dst
	}
	return t.appendCovering(dst, deepest, p)
}

// gallop is upper(p, from, hi) for runs[:from] known at or before p: it
// doubles its step from from until it passes p, then binary-searches
// the last step, so a short advance costs a few comparisons.
func (t *Table[V]) gallop(p Prefix, from, hi int) int {
	step := 1
	for from+step <= hi {
		if k := t.keys[from+step-1]; k > p.hi || k == p.hi && t.prefix(from+step-1).Compare(p) > 0 {
			break
		}
		from += step
		step <<= 1
	}
	return t.upper(p, from, min(from+step-1, hi))
}

// appendCovering appends the values of every run covering p, shortest
// first, climbing from deepest, the last run at or before p.
func (t *Table[V]) appendCovering(dst []V, deepest int, p Prefix) []V {
	for deepest >= 0 && !t.prefix(deepest).Covers(p) {
		deepest = int(t.runs[deepest].up)
	}
	// Climb from the deepest covering prefix twice: to size the result,
	// then to fill it from the back, so the shortest prefix comes first.
	n := 0
	for i := deepest; i >= 0; i = int(t.runs[i].up) {
		n += len(t.entries(i))
	}
	if n == 0 {
		return dst
	}
	end := len(dst) + n
	dst = slices.Grow(dst, n)[:end]
	for i := deepest; i >= 0; i = int(t.runs[i].up) {
		ents := t.entries(i)
		end -= len(ents)
		for j, e := range ents {
			dst[end+j] = e.v
		}
	}
	return dst
}

// Walk visits every stored prefix and its values in Compare order: IPv4
// before IPv6, and within a family the pre-order of a binary trie over
// the prefixes' bits. vals is valid only during the call. Returning
// false from fn stops the walk early.
func (t *Table[V]) Walk(fn func(p Prefix, vals []V) bool) {
	t.sort()
	var vals []V
	for i := range t.runs {
		vals = appendValues(vals[:0], t.entries(i))
		if !fn(t.prefix(i), vals) {
			return
		}
	}
}
