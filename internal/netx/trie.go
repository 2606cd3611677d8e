package netx

import "net/netip"

// Trie is a binary radix trie mapping prefixes to values of type V. It
// supports the two lookup shapes routing-security validation needs:
//
//   - Covering: all entries whose prefix covers a query prefix (used by
//     RFC 6811 — "covering VRPs" — and by IRR route-object matching).
//   - Exact and longest-prefix match.
//
// One Trie stores a single address family; Table (below) pairs two tries to
// give a family-agnostic view. The zero value of Table is ready to use; a
// Trie must be created with NewTrie.
//
// Trie is not safe for concurrent mutation; concurrent readers are safe
// once building is done, which matches the snapshot-oriented access pattern
// of the analysis pipeline.
type Trie[V any] struct {
	root *trieNode[V]
	size int
	v6   bool
}

type trieNode[V any] struct {
	child [2]*trieNode[V]
	vals  []V
	has   bool
}

// NewTrie returns an empty trie for the given address family.
func NewTrie[V any](ipv6 bool) *Trie[V] {
	return &Trie[V]{root: &trieNode[V]{}, v6: ipv6}
}

// Len returns the number of prefixes with at least one value.
func (t *Trie[V]) Len() int { return t.size }

// Insert appends v to the value list at prefix p. Multiple values per
// prefix are kept in insertion order (e.g. several VRPs or route objects
// for the same prefix). Inserting a prefix of the wrong family is a no-op
// returning false.
func (t *Trie[V]) Insert(p Prefix, v V) bool {
	if !p.IsValid() || p.Is6() != t.v6 {
		return false
	}
	n := t.root
	addr := p.Addr()
	for i := 0; i < p.Bits(); i++ {
		b := bitAt(addr, i)
		if n.child[b] == nil {
			n.child[b] = &trieNode[V]{}
		}
		n = n.child[b]
	}
	if !n.has {
		n.has = true
		t.size++
	}
	n.vals = append(n.vals, v)
	return true
}

// Exact returns the values stored at exactly prefix p, or nil.
func (t *Trie[V]) Exact(p Prefix) []V {
	n := t.node(p)
	if n == nil || !n.has {
		return nil
	}
	return n.vals
}

func (t *Trie[V]) node(p Prefix) *trieNode[V] {
	if !p.IsValid() || p.Is6() != t.v6 {
		return nil
	}
	n := t.root
	addr := p.Addr()
	for i := 0; i < p.Bits(); i++ {
		n = n.child[bitAt(addr, i)]
		if n == nil {
			return nil
		}
	}
	return n
}

// Covering appends to dst the values of every stored prefix that covers p
// (including p itself if present), walking from the root so results are
// ordered shortest prefix first. It returns the extended slice.
func (t *Trie[V]) Covering(dst []V, p Prefix) []V {
	if !p.IsValid() || p.Is6() != t.v6 {
		return dst
	}
	n := t.root
	addr := p.Addr()
	if n.has {
		dst = append(dst, n.vals...)
	}
	for i := 0; i < p.Bits(); i++ {
		n = n.child[bitAt(addr, i)]
		if n == nil {
			break
		}
		if n.has {
			dst = append(dst, n.vals...)
		}
	}
	return dst
}

// LongestMatch returns the values at the most specific stored prefix
// covering p, and whether one exists.
func (t *Trie[V]) LongestMatch(p Prefix) ([]V, bool) {
	if !p.IsValid() || p.Is6() != t.v6 {
		return nil, false
	}
	var best []V
	found := false
	n := t.root
	addr := p.Addr()
	if n.has {
		best, found = n.vals, true
	}
	for i := 0; i < p.Bits(); i++ {
		n = n.child[bitAt(addr, i)]
		if n == nil {
			break
		}
		if n.has {
			best, found = n.vals, true
		}
	}
	return best, found
}

// LongestMatchAddr is LongestMatch for a single address (host route query).
func (t *Trie[V]) LongestMatchAddr(addr netip.Addr) ([]V, bool) {
	bits := 32
	if t.v6 {
		bits = 128
	}
	p, err := PrefixFrom(addr, bits)
	if err != nil {
		return nil, false
	}
	return t.LongestMatch(p)
}

// Walk visits every stored prefix/value-list pair in lexicographic bit
// order. Returning false from fn stops the walk early.
func (t *Trie[V]) Walk(fn func(p Prefix, vals []V) bool) {
	var bits [128]byte
	t.walk(t.root, bits[:0], fn)
}

func (t *Trie[V]) walk(n *trieNode[V], path []byte, fn func(Prefix, []V) bool) bool {
	if n == nil {
		return true
	}
	if n.has {
		if !fn(t.prefixFromPath(path), n.vals) {
			return false
		}
	}
	for b := 0; b < 2; b++ {
		if !t.walk(n.child[b], append(path, byte(b)), fn) {
			return false
		}
	}
	return true
}

func (t *Trie[V]) prefixFromPath(path []byte) Prefix {
	if t.v6 {
		var a [16]byte
		for i, b := range path {
			if b == 1 {
				a[i/8] |= 1 << uint(7-i%8)
			}
		}
		p, _ := PrefixFrom(netip.AddrFrom16(a), len(path))
		return p
	}
	var a [4]byte
	for i, b := range path {
		if b == 1 {
			a[i/8] |= 1 << uint(7-i%8)
		}
	}
	p, _ := PrefixFrom(netip.AddrFrom4(a), len(path))
	return p
}

// Table pairs an IPv4 and an IPv6 trie behind one interface. The zero
// value is NOT ready; use NewTable.
type Table[V any] struct {
	v4 *Trie[V]
	v6 *Trie[V]
}

// NewTable returns an empty dual-family table.
func NewTable[V any]() *Table[V] {
	return &Table[V]{v4: NewTrie[V](false), v6: NewTrie[V](true)}
}

// Len returns the total number of stored prefixes across both families.
func (t *Table[V]) Len() int { return t.v4.Len() + t.v6.Len() }

func (t *Table[V]) trieFor(p Prefix) *Trie[V] {
	if p.Is6() {
		return t.v6
	}
	return t.v4
}

// Insert adds v at p in the appropriate family.
func (t *Table[V]) Insert(p Prefix, v V) bool { return t.trieFor(p).Insert(p, v) }

// Exact returns the values stored at exactly p.
func (t *Table[V]) Exact(p Prefix) []V { return t.trieFor(p).Exact(p) }

// Covering appends values of all stored prefixes covering p to dst.
func (t *Table[V]) Covering(dst []V, p Prefix) []V { return t.trieFor(p).Covering(dst, p) }

// LongestMatch returns the values at the most specific covering prefix.
func (t *Table[V]) LongestMatch(p Prefix) ([]V, bool) { return t.trieFor(p).LongestMatch(p) }

// Walk visits IPv4 entries then IPv6 entries.
func (t *Table[V]) Walk(fn func(p Prefix, vals []V) bool) {
	done := false
	t.v4.Walk(func(p Prefix, vals []V) bool {
		ok := fn(p, vals)
		done = !ok
		return ok
	})
	if done {
		return
	}
	t.v6.Walk(fn)
}
