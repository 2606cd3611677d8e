package astopo

import (
	"context"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/parallel"
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

// peerCand is a deferred phase-2 peer export: node from offers its route
// to node at.
type peerCand struct {
	at, from int32
	plen     int
}

// Propagate floods (prefix, origin) through the topology under
// Gao–Rexford (valley-free) routing and returns the resulting route
// tree. The tree aliases the Propagator's scratch and is valid only
// until the next Propagate call on this Propagator.
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
	c := p.c
	t := &p.tree
	t.Prefix, t.Origin = prefix, origin
	info, next := t.info, t.next
	asns := c.Intern.asns
	for i := range info {
		info[i].Class = classNone
		next[i] = -1
	}
	t.n = 0
	oi, ok := c.Intern.Index(origin)
	if !ok {
		return t
	}
	info[oi] = RouteInfo{Class: ClassOrigin, NextHop: 0, PathLen: 1}
	t.n = 1

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
					t.n++
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

	// Phase 2 — "across": ASes holding an origin/customer route export it
	// to peers; peer routes stop there (valley-free). Candidates are
	// collected first so update order cannot influence the outcome.
	cands := p.cands[:0]
	for i := range info {
		if info[i].Class > ClassCustomer {
			continue
		}
		plen := info[i].PathLen + 1
		for _, pi := range c.Peers(int32(i)) {
			cands = append(cands, peerCand{at: pi, from: int32(i), plen: plen})
		}
	}
	for _, cand := range cands {
		nh := asns[cand.from]
		if !betterRoute(info[cand.at], ClassPeer, cand.plen, nh) {
			continue
		}
		if filter != nil && !filter(asns[cand.at], nh, prefix, origin) {
			continue
		}
		if info[cand.at].Class == classNone {
			t.n++
		}
		info[cand.at] = RouteInfo{Class: ClassPeer, NextHop: nh, PathLen: cand.plen}
		next[cand.at] = cand.from
	}
	p.cands = cands[:0]

	// Phase 3 — "down": all routes descend customer links (Bellman-Ford
	// style; improvements re-queue).
	frontier = frontier[:0]
	for i := range info {
		if info[i].Class != classNone {
			frontier = append(frontier, int32(i))
		}
	}
	for len(frontier) > 0 {
		nextFrontier := scratch[:0]
		for _, fi := range frontier {
			inNext[fi] = false
			plen := info[fi].PathLen + 1
			fromASN := asns[fi]
			for _, ci := range c.Customers(fi) {
				if !betterRoute(info[ci], ClassProvider, plen, fromASN) {
					continue
				}
				if filter != nil && !filter(asns[ci], fromASN, prefix, origin) {
					continue
				}
				if info[ci].Class == classNone {
					t.n++
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
	return t
}

// Propagate floods (prefix, origin) and returns an independently owned
// route tree (safe to retain). Hot loops that flood many pairs and do
// not retain trees should use a Propagator, which reuses its scratch.
func (g *Graph) Propagate(prefix netx.Prefix, origin uint32, filter ImportFilter) *RouteTree {
	p := NewCSRPropagator(g.CSR())
	return p.Propagate(prefix, origin, filter)
}

// PropagateRequest is one unit of PropagateBatchCtx work: flood (Prefix,
// Origin) under Filter.
type PropagateRequest struct {
	Prefix netx.Prefix
	Origin uint32
	Filter ImportFilter
}

// PropagateBatchCtx propagates every request across a pool of workers
// (≤ 0 means one per CPU) and returns the route trees in request order,
// so results are deterministic regardless of the worker count. Each
// propagation is independent; filters are called concurrently and must
// be safe for concurrent use (pure functions over immutable state, as
// all filters in this repository are). Workers stop picking up new
// requests once ctx is done, and a panic inside one propagation is
// returned as a *parallel.PanicError instead of crashing the process.
// On error the returned slice is nil — partially filled trees are never
// exposed.
func (g *Graph) PropagateBatchCtx(ctx context.Context, reqs []PropagateRequest, workers int) ([]*RouteTree, error) {
	trees := make([]*RouteTree, len(reqs))
	if len(reqs) == 0 {
		return trees, nil
	}
	g.CSR() // build once, outside the pool
	err := parallel.ForEachCtx(ctx, len(reqs), workers, func(i int) {
		r := reqs[i]
		trees[i] = g.Propagate(r.Prefix, r.Origin, r.Filter)
	})
	if err != nil {
		return nil, err
	}
	return trees, nil
}
