package astopo

// This file holds the compact, index-based topology representation the
// propagation engine runs on. ASNs are interned into a dense symbol
// table built once per topology, and adjacency is stored in CSR form:
// one flat neighbor array plus per-node offsets, with each node's span
// ordered providers | customers | peers and the two split points stored
// alongside. The CSR is the canonical runtime representation — the
// map[uint32]*AS records in Graph are the mutable build-time view and
// are never touched on the propagation hot path.

// Interner is the dense ASN symbol table: a bijection between the
// topology's ASNs (ascending) and contiguous indexes [0, Len).
type Interner struct {
	asns []uint32
	idx  map[uint32]int32
}

func newInterner(asns []uint32) *Interner {
	it := &Interner{asns: asns, idx: make(map[uint32]int32, len(asns))}
	for i, asn := range asns {
		it.idx[asn] = int32(i)
	}
	return it
}

// Len returns the number of interned ASNs.
func (it *Interner) Len() int { return len(it.asns) }

// ASN returns the ASN at index i.
func (it *Interner) ASN(i int32) uint32 { return it.asns[i] }

// Index returns the dense index for asn.
func (it *Interner) Index(asn uint32) (int32, bool) {
	i, ok := it.idx[asn]
	return i, ok
}

// ASNs returns the interned ASNs in index order (ascending). The
// returned slice is shared; callers must not modify it.
func (it *Interner) ASNs() []uint32 { return it.asns }

// CSR is the compressed-sparse-row adjacency over interned indexes.
// Node i's neighbors live in nbr[off[i]:off[i+1]], ordered
// providers | customers | peers; custAt[i] and peerAt[i] are the split
// points. Within each class, neighbors are in ascending index order.
type CSR struct {
	Intern *Interner
	nbr    []int32
	off    []int32 // len N+1
	custAt []int32 // len N
	peerAt []int32 // len N
}

// N returns the number of nodes.
func (c *CSR) N() int { return len(c.off) - 1 }

// Providers returns node i's provider neighbors (shared slice).
func (c *CSR) Providers(i int32) []int32 { return c.nbr[c.off[i]:c.custAt[i]] }

// Customers returns node i's customer neighbors (shared slice).
func (c *CSR) Customers(i int32) []int32 { return c.nbr[c.custAt[i]:c.peerAt[i]] }

// Peers returns node i's peer neighbors (shared slice).
func (c *CSR) Peers(i int32) []int32 { return c.nbr[c.peerAt[i]:c.off[i+1]] }

// HasCustomer reports whether node i has node j as a direct customer
// (binary search over the customer span).
func (c *CSR) HasCustomer(i, j int32) bool {
	s := c.nbr[c.custAt[i]:c.peerAt[i]]
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == j
}

// CSR returns the canonical compact adjacency, building it on first use
// and caching it until the next topology mutation. Safe for concurrent
// callers; the returned value is immutable.
func (g *Graph) CSR() *CSR {
	g.adjMu.Lock()
	defer g.adjMu.Unlock()
	if g.adj != nil {
		return g.adj
	}
	it := newInterner(g.ASNs())
	n := len(it.asns)
	c := &CSR{
		Intern: it,
		off:    make([]int32, n+1),
		custAt: make([]int32, n),
		peerAt: make([]int32, n),
	}
	total := 0
	for _, asn := range it.asns {
		a := g.ases[asn]
		total += len(a.Providers) + len(a.Customers) + len(a.Peers)
	}
	c.nbr = make([]int32, 0, total)
	for i, asn := range it.asns {
		a := g.ases[asn]
		c.off[i] = int32(len(c.nbr))
		for _, p := range a.Providers {
			c.nbr = append(c.nbr, it.idx[p])
		}
		c.custAt[i] = int32(len(c.nbr))
		for _, cu := range a.Customers {
			c.nbr = append(c.nbr, it.idx[cu])
		}
		c.peerAt[i] = int32(len(c.nbr))
		for _, pe := range a.Peers {
			c.nbr = append(c.nbr, it.idx[pe])
		}
	}
	c.off[n] = int32(len(c.nbr))
	g.adj = c
	return c
}

// Propagator runs repeated propagations over one CSR while reusing all
// per-run scratch (route table, frontier queues, touched list), so a
// worker flooding many (prefix, origin) pairs performs no per-run
// allocation. The tree returned by a flood aliases that scratch and is
// valid only until the next flood on the same Propagator; callers that
// retain trees must use Graph.Propagate instead.
//
// A Propagator is not safe for concurrent use; give each worker its own.
type Propagator struct {
	c    *CSR
	tree RouteTree

	// Reused scratch: BFS frontier double-buffer, frontier membership
	// bits, and the nodes the last flood gave a route (in settling
	// order), which is all the next flood has to clear.
	frontier []int32
	scratch  []int32
	inNext   []bool
	touched  []int32
}

// NewPropagator returns a Propagator over g's current topology.
func NewPropagator(g *Graph) *Propagator { return NewCSRPropagator(g.CSR()) }

// NewCSRPropagator returns a Propagator over an existing CSR.
func NewCSRPropagator(c *CSR) *Propagator {
	n := c.N()
	p := &Propagator{c: c}
	p.tree = RouteTree{
		c:    c,
		info: make([]RouteInfo, n),
		next: make([]int32, n),
	}
	for i := range p.tree.info {
		p.tree.info[i].Class = classNone
		p.tree.next[i] = -1
	}
	return p
}
