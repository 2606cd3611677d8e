package astopo

import (
	"fmt"

	"manrsmeter/internal/netx"
)

// RouteClass orders routes by Gao–Rexford preference: routes learned from
// customers are preferred over peer routes, which beat provider routes.
type RouteClass uint8

// Route classes in preference order (lower is better).
const (
	ClassOrigin RouteClass = iota
	ClassCustomer
	ClassPeer
	ClassProvider
	classNone RouteClass = 0xFF
)

// ImportFilter decides whether importer accepts a route for (prefix,
// origin) from neighbor. Returning false drops the route at that edge —
// this is how ROV and IRR filtering are modeled. A nil filter accepts
// everything.
type ImportFilter func(importer, neighbor uint32, prefix netx.Prefix, origin uint32) bool

// RouteInfo is one AS's best route toward the propagated prefix.
type RouteInfo struct {
	Class RouteClass
	// NextHop is the neighbor the route was learned from (0 at the origin).
	NextHop uint32
	// PathLen counts ASes on the path including the origin and this AS.
	PathLen int
}

// RouteTree is the result of propagating a single (prefix, origin):
// every AS's best route, queryable by ASN or by interned index.
type RouteTree struct {
	Prefix netx.Prefix
	Origin uint32

	c    *CSR
	info []RouteInfo // indexed densely; Class == classNone means no route
	next []int32     // next-hop index per node, -1 at the origin / unreached
	n    int
}

// Has reports whether asn learned a route.
func (t *RouteTree) Has(asn uint32) bool {
	_, ok := t.Info(asn)
	return ok
}

// Info returns asn's best route and whether one exists.
func (t *RouteTree) Info(asn uint32) (RouteInfo, bool) {
	i, ok := t.c.Intern.Index(asn)
	if !ok || t.info[i].Class == classNone {
		return RouteInfo{}, false
	}
	return t.info[i], true
}

// InfoAt is Info by interned index, skipping the symbol-table lookup.
func (t *RouteTree) InfoAt(i int32) (RouteInfo, bool) {
	if t.info[i].Class == classNone {
		return RouteInfo{}, false
	}
	return t.info[i], true
}

// Len returns the number of ASes that learned a route.
func (t *RouteTree) Len() int { return t.n }

// Reached returns the ASNs with a route, ascending.
func (t *RouteTree) Reached() []uint32 {
	out := make([]uint32, 0, t.n)
	// Interned ASNs ascend with the index, so the append order is
	// already sorted.
	for i, info := range t.info {
		if info.Class != classNone {
			out = append(out, t.c.Intern.asns[i])
		}
	}
	return out
}

// PathFrom reconstructs the AS path from asn to the origin (inclusive on
// both ends). It returns nil when asn has no route.
func (t *RouteTree) PathFrom(asn uint32) []uint32 {
	i, ok := t.c.Intern.Index(asn)
	if !ok || t.info[i].Class == classNone {
		return nil
	}
	return t.appendPathAt(nil, i)
}

// AppendPathAt appends the AS path from the node at interned index i to
// the origin onto dst and returns it, so callers walking many paths can
// reuse one buffer. Nothing is appended when the node has no route.
func (t *RouteTree) AppendPathAt(dst []uint32, i int32) []uint32 {
	if t.info[i].Class == classNone {
		return dst
	}
	return t.appendPathAt(dst, i)
}

func (t *RouteTree) appendPathAt(dst []uint32, i int32) []uint32 {
	asns := t.c.Intern.asns
	for {
		dst = append(dst, asns[i])
		ni := t.next[i]
		if ni < 0 {
			return dst
		}
		i = ni
	}
}

// betterRoute reports whether a candidate (class, plen, nh) beats the
// current route cur: class, then path length, then lowest next-hop ASN.
func betterRoute(cur RouteInfo, class RouteClass, plen int, nh uint32) bool {
	if cur.Class == classNone {
		return true
	}
	if class != cur.Class {
		return class < cur.Class
	}
	if plen != cur.PathLen {
		return plen < cur.PathLen
	}
	return nh < cur.NextHop
}

// NeedSet is a set of nodes closed under "provider of": the nodes a caller
// will read routes at, plus all their transitive providers. A flood
// restricted to it (Propagator.PropagateTo) is exact on the set — see
// PropagateTo for why — and skips everything else on the way down.
// Immutable once built, so one set is shared by every worker of a build.
type NeedSet struct {
	c  *CSR
	in []bool // per interned index
	// The customer links that stay inside the set, CSR-style: node i's
	// are cust[custOff[i]:custOff[i+1]]. Tier-1 customer spans run to
	// thousands of stubs; the few that are needed are picked out once
	// here rather than once per flood.
	custOff []int32
	cust    []int32
}

// NeedSet returns the provider up-closure of targets (interned indexes).
func (c *CSR) NeedSet(targets []int32) *NeedSet {
	s := &NeedSet{c: c, in: make([]bool, c.N())}
	stack := make([]int32, 0, len(targets))
	add := func(i int32) {
		if !s.in[i] {
			s.in[i] = true
			stack = append(stack, i)
		}
	}
	for _, i := range targets {
		add(i)
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, pi := range c.Providers(i) {
			add(pi)
		}
	}
	s.custOff = make([]int32, c.N()+1)
	for i := range s.in {
		if s.in[i] {
			for _, ci := range c.Customers(int32(i)) {
				if s.in[ci] {
					s.cust = append(s.cust, ci)
				}
			}
		}
		s.custOff[i+1] = int32(len(s.cust))
	}
	return s
}

// PartialTree is the result of a flood restricted to a NeedSet. It
// answers only where the restricted flood is exact: at nodes of the set,
// and at nodes holding an origin or customer route (phase 1 is never
// restricted, and no later phase can displace such a route). Anywhere
// else "no route" would be a guess, so reading there panics. Whole-tree
// questions (Len, Reached) are deliberately not part of the type.
type PartialTree struct {
	t    *RouteTree
	need *NeedSet // nil: the flood was unrestricted, every node answers
}

func (v PartialTree) check(i int32) {
	if v.need != nil && !v.need.in[i] && v.t.info[i].Class == classNone {
		panic(fmt.Sprintf("astopo: AS%d read from a flood restricted to a need-set that excludes it",
			v.t.c.Intern.asns[i]))
	}
}

// InfoAt returns the best route of the node at interned index i and
// whether one exists.
func (v PartialTree) InfoAt(i int32) (RouteInfo, bool) {
	v.check(i)
	return v.t.InfoAt(i)
}

// AppendPathAt is RouteTree.AppendPathAt. Only the start of the path is
// checked: every later hop is a provider of its predecessor (in the
// set), the far end of a peer link (customer route) or a customer
// (customer route), so the whole walk is over exact nodes.
func (v PartialTree) AppendPathAt(dst []uint32, i int32) []uint32 {
	v.check(i)
	return v.t.AppendPathAt(dst, i)
}

// AppendIndexPathAt is AppendPathAt in interned indexes: it appends the
// path's nodes, not their ASNs, for callers that count in index space.
func (v PartialTree) AppendIndexPathAt(dst []int32, i int32) []int32 {
	v.check(i)
	if v.t.info[i].Class == classNone {
		return dst
	}
	for ; i >= 0; i = v.t.next[i] {
		dst = append(dst, i)
	}
	return dst
}

// Propagate floods (prefix, origin) through the topology under
// Gao–Rexford (valley-free) routing and returns the resulting route
// tree. The tree aliases the Propagator's scratch and is valid only
// until the next flood on this Propagator.
//
// Export rules: an AS exports routes learned from customers (and its own
// routes) to everyone; routes learned from peers or providers are
// exported only to customers. Selection: customer > peer > provider,
// then shortest path, then lowest next-hop ASN (deterministic).
//
// The filter is consulted at every import edge; a dropped route does not
// propagate further through that AS (matching how ROV deployment bounds
// invalid-route visibility, §9.4).
func (p *Propagator) Propagate(prefix netx.Prefix, origin uint32, filter ImportFilter) *RouteTree {
	p.flood(prefix, origin, filter, nil)
	return &p.tree
}

// PropagateTo is Propagate for callers that read routes only at the
// nodes of need (vantage points): the peer and provider phases relax
// only edges into need. That is exact there because an AS's final route
// depends only on its providers' routes (phase 3), its peers' customer
// routes (phase 2) and the origin's up-cone (phase 1, left unrestricted)
// — and need contains every provider of its members. A nil need floods
// everything. The result is valid until the next flood on p.
func (p *Propagator) PropagateTo(prefix netx.Prefix, origin uint32, filter ImportFilter, need *NeedSet) PartialTree {
	p.flood(prefix, origin, filter, need)
	return PartialTree{t: &p.tree, need: need}
}

// Settled returns how many nodes the last flood gave a route: the work
// it did. After an unrestricted flood it equals the tree's Len.
func (p *Propagator) Settled() int { return len(p.touched) }

// flood is the one propagation loop. Its cost is what it touches: the
// previous run is undone through the touched list, phase 2 exports from
// the nodes phase 1 settled, and phase 3 starts from the nodes holding a
// route, so no step scans all N nodes.
func (p *Propagator) flood(prefix netx.Prefix, origin uint32, filter ImportFilter, need *NeedSet) {
	c := p.c
	t := &p.tree
	t.Prefix, t.Origin = prefix, origin
	info, next := t.info, t.next
	asns := c.Intern.asns
	var in []bool // nil: every node is needed
	if need != nil {
		if need.c != c {
			panic("astopo: NeedSet built over a different topology")
		}
		in = need.in
	}
	for _, i := range p.touched {
		info[i].Class = classNone
		next[i] = -1
	}
	touched := p.touched[:0]
	oi, ok := c.Intern.Index(origin)
	if !ok {
		p.touched, t.n = touched, 0
		return
	}
	info[oi] = RouteInfo{Class: ClassOrigin, NextHop: 0, PathLen: 1}
	touched = append(touched, oi)

	if p.inNext == nil {
		p.inNext = make([]bool, c.N())
	}
	inNext := p.inNext

	// Phase 1 — "up": customer routes climb provider links.
	frontier := append(p.frontier[:0], oi)
	scratch := p.scratch[:0]
	for len(frontier) > 0 {
		nextFrontier := scratch[:0]
		for _, fi := range frontier {
			inNext[fi] = false
			plen := info[fi].PathLen + 1
			fromASN := asns[fi]
			for _, pi := range c.Providers(fi) {
				if !betterRoute(info[pi], ClassCustomer, plen, fromASN) {
					continue
				}
				if filter != nil && !filter(asns[pi], fromASN, prefix, origin) {
					continue
				}
				if info[pi].Class == classNone {
					touched = append(touched, pi)
				}
				info[pi] = RouteInfo{Class: ClassCustomer, NextHop: fromASN, PathLen: plen}
				next[pi] = fi
				if !inNext[pi] {
					inNext[pi] = true
					nextFrontier = append(nextFrontier, pi)
				}
			}
		}
		frontier, scratch = nextFrontier, frontier
	}

	// Phase 2 — "across": the ASes phase 1 settled (origin and customer
	// routes) export to their peers; peer routes stop there (valley-free).
	// Update order cannot influence the outcome: exporters' routes are
	// final, and a node that gains a peer route here is not an exporter.
	exporters := touched // appends below land past its length
	for _, fi := range exporters {
		plen := info[fi].PathLen + 1
		fromASN := asns[fi]
		for _, pi := range c.Peers(fi) {
			if in != nil && !in[pi] {
				continue
			}
			if !betterRoute(info[pi], ClassPeer, plen, fromASN) {
				continue
			}
			if filter != nil && !filter(asns[pi], fromASN, prefix, origin) {
				continue
			}
			if info[pi].Class == classNone {
				touched = append(touched, pi)
			}
			info[pi] = RouteInfo{Class: ClassPeer, NextHop: fromASN, PathLen: plen}
			next[pi] = fi
		}
	}

	// Phase 3 — "down": all routes descend customer links (Bellman-Ford
	// style; improvements re-queue). A node outside the need-set has no
	// customer inside it, so it need not start.
	frontier = frontier[:0]
	for _, i := range touched {
		if in == nil || in[i] {
			frontier = append(frontier, i)
		}
	}
	for len(frontier) > 0 {
		nextFrontier := scratch[:0]
		for _, fi := range frontier {
			inNext[fi] = false
			plen := info[fi].PathLen + 1
			fromASN := asns[fi]
			customers := c.Customers(fi)
			if need != nil {
				customers = need.cust[need.custOff[fi]:need.custOff[fi+1]]
			}
			for _, ci := range customers {
				if !betterRoute(info[ci], ClassProvider, plen, fromASN) {
					continue
				}
				if filter != nil && !filter(asns[ci], fromASN, prefix, origin) {
					continue
				}
				if info[ci].Class == classNone {
					touched = append(touched, ci)
				}
				info[ci] = RouteInfo{Class: ClassProvider, NextHop: fromASN, PathLen: plen}
				next[ci] = fi
				if !inNext[ci] {
					inNext[ci] = true
					nextFrontier = append(nextFrontier, ci)
				}
			}
		}
		frontier, scratch = nextFrontier, frontier
	}
	p.frontier, p.scratch = frontier[:0], scratch[:0]
	p.touched, t.n = touched, len(touched)
}

// Propagate floods (prefix, origin) and returns an independently owned
// route tree (safe to retain). Hot loops that flood many pairs and do
// not retain trees should use a Propagator, which reuses its scratch.
func (g *Graph) Propagate(prefix netx.Prefix, origin uint32, filter ImportFilter) *RouteTree {
	p := NewCSRPropagator(g.CSR())
	return p.Propagate(prefix, origin, filter)
}
