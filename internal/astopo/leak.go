package astopo

import "manrsmeter/internal/netx"

// Leak describes a valley-free violation found in an observed AS path —
// a route leak in the RFC 7908 sense: an AS re-exporting a route it
// learned from a provider or peer to another provider or peer.
type Leak struct {
	// Leaker is the AS that exported against Gao–Rexford rules.
	Leaker uint32
	// From and To are the neighbors on either side of the violation:
	// Leaker learned the route from From and exported it to To.
	From, To uint32
}

// DetectLeak scans an AS path (vantage-first, origin-last, as collectors
// record them) for the first valley-free violation. It returns the leak
// and true, or a zero Leak and false for a clean path. Paths using edges
// absent from the graph cannot be classified and report no leak.
func (g *Graph) DetectLeak(path []uint32) (Leak, bool) {
	if len(path) < 3 {
		return Leak{}, false
	}
	// Read origin→vantage. Track whether the route has gone "down"
	// (provider→customer) or "across" (peer): after that, any further
	// up/across export is a leak by the AS in the middle.
	descended := false
	for i := len(path) - 1; i > 0; i-- {
		from, to := path[i], path[i-1] // from exports to to
		rel := g.edgeRel(from, to)
		switch rel {
		case relToProvider, relToPeer:
			if descended {
				// path[i] received the route from path[i+1] and exported it
				// upward/sideways.
				return Leak{Leaker: from, From: path[i+1], To: to}, true
			}
			if rel == relToPeer {
				descended = true // at most one peer hop at the top
			}
		case relToCustomer:
			descended = true
		default:
			return Leak{}, false // unknown edge: cannot judge
		}
	}
	return Leak{}, false
}

type edgeRelKind int

const (
	relUnknown edgeRelKind = iota
	relToProvider
	relToPeer
	relToCustomer
)

// edgeRel classifies the export edge from→to. It scans the AS's own
// sorted neighbor slices, the rows the CSR is built from: one map
// lookup and three short scans, with nothing for the CSR to add.
func (g *Graph) edgeRel(from, to uint32) edgeRelKind {
	a := g.ases[from]
	if a == nil {
		return relUnknown
	}
	for _, p := range a.Providers {
		if p == to {
			return relToProvider
		}
	}
	for _, c := range a.Customers {
		if c == to {
			return relToCustomer
		}
	}
	for _, p := range a.Peers {
		if p == to {
			return relToPeer
		}
	}
	return relUnknown
}

// PropagateLeak models an RFC 7908 type-1/-2 route leak: leaker learns
// (prefix, origin) normally, then re-exports it as if it were a customer
// route — to its providers and peers as well as its customers. The
// returned tree covers the ASes whose best route becomes the leaked one
// (because a customer-classed route beats the peer/provider routes they
// held), plus everything only reachable through the leak.
//
// PathFrom on the returned tree yields the full leaked path (through the
// leaker back to the true origin), suitable for DetectLeak.
func (g *Graph) PropagateLeak(prefix netx.Prefix, origin, leaker uint32, filter ImportFilter) (normal, leaked *RouteTree) {
	normal = g.Propagate(prefix, origin, filter)
	leakerInfo, ok := normal.Info(leaker)
	if !ok || leaker == origin {
		return normal, nil
	}
	// The leak: flood from the leaker as if it originated the route (an
	// origin-class route exports everywhere — exactly the mis-export),
	// then stitch the leaker's real upstream path back on.
	leakTree := g.Propagate(prefix, leaker, filter)
	// Fix up the leaker's own info so PathFrom continues toward the true
	// origin.
	intern := leakTree.c.Intern
	nextIdx := func(nh uint32) int32 {
		if nh == 0 {
			return -1
		}
		i, ok := intern.Index(nh)
		if !ok {
			return -1
		}
		return i
	}
	li, _ := intern.Index(leaker)
	leakTree.info[li] = RouteInfo{Class: leakerInfo.Class, NextHop: leakerInfo.NextHop, PathLen: leakerInfo.PathLen}
	leakTree.next[li] = nextIdx(leakerInfo.NextHop)
	leakTree.Origin = origin
	// Splice the normal tree's entries for ASes on the leaker's upstream
	// path so reconstruction terminates at the origin.
	cur := leakerInfo.NextHop
	for cur != 0 {
		ci, _ := intern.Index(cur)
		info, ok := normal.Info(cur)
		if !ok {
			break
		}
		if leakTree.info[ci].Class == classNone {
			leakTree.n++
		}
		leakTree.info[ci] = info
		if cur == origin {
			leakTree.next[ci] = -1
			break
		}
		leakTree.next[ci] = nextIdx(info.NextHop)
		cur = info.NextHop
	}
	return normal, leakTree
}
