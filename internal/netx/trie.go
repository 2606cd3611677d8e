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
// those links.
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
	slices.SortStableFunc(t.ents, func(a, b tableEntry[V]) int { return a.p.Compare(b.p) })
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

// search returns the index of the last run at or before p in Compare
// order (-1 if none) and whether that run is p itself.
func (t *Table[V]) search(p Prefix) (int, bool) {
	t.sort()
	lo, hi := 0, t.n4
	switch p.width {
	case 0:
		return -1, false
	case 128:
		lo, hi = t.n4, len(t.runs)
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if k := t.keys[m]; k < p.hi || k == p.hi && t.prefix(m).Compare(p) <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1, lo > 0 && t.prefix(lo-1) == p
}

// Exact returns a copy of the values stored at exactly prefix p, or nil.
func (t *Table[V]) Exact(p Prefix) []V {
	i, found := t.search(p)
	if !found {
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
	deepest, _ := t.search(p)
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
