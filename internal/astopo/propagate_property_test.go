package astopo

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/rpki"
)

// randomHierarchy builds a random three-tier topology with no
// provider-customer cycles (providers always have lower ASNs).
func randomHierarchy(r *rand.Rand) *Graph {
	g := NewGraph()
	nTop, nMid, nLeaf := 2+r.Intn(3), 4+r.Intn(6), 10+r.Intn(20)
	var tops, mids, leaves []uint32
	asn := uint32(1)
	add := func() uint32 {
		g.AddAS(asn, "org", "Org", "US", rpki.ARIN)
		asn++
		return asn - 1
	}
	for i := 0; i < nTop; i++ {
		tops = append(tops, add())
	}
	for i := 0; i < nMid; i++ {
		mids = append(mids, add())
	}
	for i := 0; i < nLeaf; i++ {
		leaves = append(leaves, add())
	}
	for i := 0; i < len(tops); i++ {
		for j := i + 1; j < len(tops); j++ {
			if r.Intn(2) == 0 {
				_ = g.SetPeer(tops[i], tops[j])
			}
		}
	}
	for _, m := range mids {
		_ = g.SetProviderCustomer(tops[r.Intn(len(tops))], m)
		if r.Intn(2) == 0 {
			_ = g.SetProviderCustomer(tops[r.Intn(len(tops))], m)
		}
		if r.Intn(3) == 0 {
			o := mids[r.Intn(len(mids))]
			if o != m {
				_ = g.SetPeer(m, o)
			}
		}
	}
	for _, l := range leaves {
		_ = g.SetProviderCustomer(mids[r.Intn(len(mids))], l)
		if r.Intn(3) == 0 {
			_ = g.SetProviderCustomer(mids[r.Intn(len(mids))], l)
		}
		if r.Intn(4) == 0 {
			o := leaves[r.Intn(len(leaves))]
			if o != l {
				_ = g.SetPeer(l, o)
			}
		}
	}
	return g
}

// relOf classifies the edge a→b from a's perspective.
func relOf(g *Graph, a, b uint32) string {
	as := g.AS(a)
	for _, c := range as.Customers {
		if c == b {
			return "customer"
		}
	}
	for _, p := range as.Providers {
		if p == b {
			return "provider"
		}
	}
	for _, p := range as.Peers {
		if p == b {
			return "peer"
		}
	}
	return "none"
}

// TestPropagatePathsValleyFree checks the Gao–Rexford invariant on random
// topologies: along any selected path from a vantage point to the origin
// (read origin→vantage), once the path goes "down" (provider→customer)
// or "across" (peer), it never goes up or across again.
func TestPropagatePathsValleyFree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomHierarchy(r)
		asns := g.ASNs()
		origin := asns[r.Intn(len(asns))]
		tree := g.Propagate(netx.MustParsePrefix("10.0.0.0/16"), origin, nil)
		for _, v := range asns {
			path := tree.PathFrom(v)
			if path == nil {
				continue
			}
			if path[len(path)-1] != origin || path[0] != v {
				return false
			}
			// Read origin→vantage; each hop sender→receiver is an export.
			// Legal sequences: up* across? down* where "up" is
			// customer→provider export.
			phase := 0 // 0=up, 1=after peer, 2=down
			for i := len(path) - 1; i > 0; i-- {
				from, to := path[i], path[i-1]
				switch relOf(g, from, to) {
				case "provider": // from exports to its provider: only while climbing
					if phase != 0 {
						return false
					}
				case "peer": // one peer hop at the top
					if phase != 0 {
						return false
					}
					phase = 1
				case "customer": // descending
					phase = 2
				default:
					return false // path uses a nonexistent edge
				}
			}
			// Paths must not repeat ASes.
			seen := map[uint32]bool{}
			for _, a := range path {
				if seen[a] {
					return false
				}
				seen[a] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropagateFilterMonotone: adding a filter can only shrink the set of
// ASes that hear a route, never grow it.
func TestPropagateFilterMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomHierarchy(r)
		asns := g.ASNs()
		origin := asns[r.Intn(len(asns))]
		p := netx.MustParsePrefix("10.0.0.0/16")
		full := g.Propagate(p, origin, nil)
		blocked := map[uint32]bool{}
		for i := 0; i < 3; i++ {
			blocked[asns[r.Intn(len(asns))]] = true
		}
		filter := func(importer, _ uint32, _ netx.Prefix, _ uint32) bool {
			return !blocked[importer]
		}
		filtered := g.Propagate(p, origin, filter)
		if filtered.Len() > full.Len() {
			return false
		}
		for _, asn := range filtered.Reached() {
			if !full.Has(asn) {
				return false
			}
			if blocked[asn] && asn != origin {
				return false // filter must actually block
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// randomDAG builds a random topology of any depth with no
// provider-customer cycles (providers always have lower ASNs): each AS
// buys transit from up to three earlier ones and peers at random.
func randomDAG(r *rand.Rand) *Graph {
	g := NewGraph()
	n := 8 + r.Intn(60)
	for asn := uint32(1); asn <= uint32(n); asn++ {
		g.AddAS(asn, "org", "Org", "US", rpki.ARIN)
		for k := r.Intn(4); k > 0 && asn > 1; k-- {
			_ = g.SetProviderCustomer(1+uint32(r.Intn(int(asn-1))), asn)
		}
	}
	for k := r.Intn(2 * n); k > 0; k-- {
		a, b := 1+uint32(r.Intn(n)), 1+uint32(r.Intn(n))
		if a != b && relOf(g, a, b) == "none" {
			_ = g.SetPeer(a, b)
		}
	}
	return g
}

// propertyFilters returns the three filter shapes the dataset builder
// floods under: none, ROV-like (some importers drop the route from
// everyone) and IRR-like (some importers drop it from customers only,
// except on a deterministic per-importer miss).
func propertyFilters(r *rand.Rand, c *CSR) []ImportFilter {
	drops := map[uint32]bool{}
	for k := 1 + r.Intn(4); k > 0; k-- {
		drops[c.Intern.ASN(int32(r.Intn(c.N())))] = true
	}
	salt := uint32(r.Intn(3))
	return []ImportFilter{
		nil,
		func(importer, _ uint32, _ netx.Prefix, _ uint32) bool { return !drops[importer] },
		func(importer, neighbor uint32, _ netx.Prefix, _ uint32) bool {
			i, _ := c.Intern.Index(importer)
			j, _ := c.Intern.Index(neighbor)
			return !(c.HasCustomer(i, j) && (drops[importer] || importer%3 == salt) && (importer+salt)%4 != 0)
		},
	}
}

// TestNeedSetFloodMatchesFull is the exactness property of PropagateTo:
// on random DAGs, for random target sets and every filter shape, a flood
// restricted to the targets' need-set gives every node of the set the
// route and the path the full flood gives it. One Propagator serves all
// floods of a topology, restricted and full interleaved, so the
// touched-list reset is under test too.
func TestNeedSetFloodMatchesFull(t *testing.T) {
	p := netx.MustParsePrefix("10.0.0.0/16")
	var floods, fullNodes, needNodes int
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r)
		if r.Intn(2) == 0 {
			g = randomHierarchy(r)
		}
		c := g.CSR()
		n := c.N()
		reused, fresh := NewCSRPropagator(c), NewCSRPropagator(c)
		for round := 0; round < 6; round++ {
			targets := make([]int32, r.Intn(5))
			for i := range targets {
				targets[i] = int32(r.Intn(n))
			}
			need := c.NeedSet(targets)
			origin := c.Intern.ASN(int32(r.Intn(n)))
			for fi, filter := range propertyFilters(r, c) {
				full := fresh.Propagate(p, origin, filter)
				fullNodes += full.Len()
				part := reused.PropagateTo(p, origin, filter, need)
				needNodes += reused.Settled()
				floods++
				for i := int32(0); i < int32(n); i++ {
					wantInfo, wantOK := full.InfoAt(i)
					if !need.in[i] {
						// Outside the set only phase-1 routes are answered,
						// and they must be right as well.
						if wantOK && wantInfo.Class <= ClassCustomer {
							if got, ok := part.InfoAt(i); !ok || got != wantInfo {
								t.Logf("seed %d round %d filter %d: AS%d outside the set: got %+v,%v want %+v", seed, round, fi, c.Intern.ASN(i), got, ok, wantInfo)
								return false
							}
						}
						continue
					}
					gotInfo, gotOK := part.InfoAt(i)
					if gotOK != wantOK || gotInfo != wantInfo {
						t.Logf("seed %d round %d filter %d: AS%d info %+v,%v want %+v,%v", seed, round, fi, c.Intern.ASN(i), gotInfo, gotOK, wantInfo, wantOK)
						return false
					}
					got, want := part.AppendPathAt(nil, i), full.AppendPathAt(nil, i)
					if !reflect.DeepEqual(got, want) {
						t.Logf("seed %d round %d filter %d: AS%d path %v want %v", seed, round, fi, c.Intern.ASN(i), got, want)
						return false
					}
					var byIndex []uint32
					for _, j := range part.AppendIndexPathAt(nil, i) {
						byIndex = append(byIndex, c.Intern.ASN(j))
					}
					if !reflect.DeepEqual(byIndex, want) {
						t.Logf("seed %d round %d filter %d: AS%d index path %v want %v", seed, round, fi, c.Intern.ASN(i), byIndex, want)
						return false
					}
				}
				// A full flood through the same Propagator, between
				// restricted ones, is still the full flood.
				again := reused.PropagateTo(p, origin, filter, nil)
				if reused.Settled() != full.Len() {
					t.Logf("seed %d round %d filter %d: nil need-set settled %d, full flood %d", seed, round, fi, reused.Settled(), full.Len())
					return false
				}
				for i := int32(0); i < int32(n); i++ {
					got, gotOK := again.InfoAt(i)
					if want, wantOK := full.InfoAt(i); got != want || gotOK != wantOK {
						t.Logf("seed %d round %d filter %d: nil need-set AS%d info %+v want %+v", seed, round, fi, c.Intern.ASN(i), got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if needNodes*2 > fullNodes {
		t.Errorf("%d floods settled %d nodes restricted, %d full: the restriction saves less than half", floods, needNodes, fullNodes)
	}
}

// mustPanic runs f and reports whether it panicked.
func mustPanic(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// TestPartialTreeNeverGuesses: a restricted flood knows nothing about
// the ASes it skipped, so it must not be able to say "no route" there.
// Whole-tree questions do not exist on the type; a read outside the
// need-set either returns the exact phase-1 route or panics.
func TestPartialTreeNeverGuesses(t *testing.T) {
	for _, name := range []string{"Len", "Reached", "Has", "Info", "PathFrom"} {
		if _, ok := reflect.TypeOf(PartialTree{}).MethodByName(name); ok {
			t.Errorf("PartialTree has method %s: it would answer for nodes the flood skipped", name)
		}
	}

	// 1 ← 2 ← 4, 1 ← 3 ← 5: origin 4, vantage point 2.
	g := NewGraph()
	for asn := uint32(1); asn <= 5; asn++ {
		g.AddAS(asn, "org", "Org", "US", rpki.ARIN)
	}
	for _, e := range [][2]uint32{{1, 2}, {1, 3}, {2, 4}, {3, 5}} {
		if err := g.SetProviderCustomer(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	c := g.CSR()
	idx := func(asn uint32) int32 { i, _ := c.Intern.Index(asn); return i }
	need := c.NeedSet([]int32{idx(2)})
	if !reflect.DeepEqual(need.in, []bool{true, true, false, false, false}) {
		t.Fatalf("need-set of AS2 = %v, want {1, 2}", need.in)
	}
	prop := NewCSRPropagator(c)
	p := netx.MustParsePrefix("10.0.0.0/16")
	tree := prop.PropagateTo(p, 4, nil, need)
	if got := tree.AppendPathAt(nil, idx(2)); !reflect.DeepEqual(got, []uint32{2, 4}) {
		t.Errorf("path at the vantage point = %v, want [2 4]", got)
	}
	if info, ok := tree.InfoAt(idx(4)); !ok || info.Class != ClassOrigin {
		t.Errorf("origin outside the set: %+v, %v; its phase-1 route is exact and must be answered", info, ok)
	}
	// AS3 and AS5 do hear the route in a full flood (via AS1); the
	// restricted one skipped them.
	if full := g.Propagate(p, 4, nil); !full.Has(3) || !full.Has(5) {
		t.Fatal("fixture: AS3 and AS5 should be reached by the full flood")
	}
	for _, asn := range []uint32{3, 5} {
		i := idx(asn)
		if !mustPanic(func() { tree.InfoAt(i) }) {
			t.Errorf("InfoAt(AS%d) outside the need-set answered instead of panicking", asn)
		}
		if !mustPanic(func() { tree.AppendPathAt(nil, i) }) {
			t.Errorf("AppendPathAt(AS%d) outside the need-set answered instead of panicking", asn)
		}
		if !mustPanic(func() { tree.AppendIndexPathAt(nil, i) }) {
			t.Errorf("AppendIndexPathAt(AS%d) outside the need-set answered instead of panicking", asn)
		}
	}
	// The unrestricted form answers everywhere.
	all := prop.PropagateTo(p, 4, nil, nil)
	if info, ok := all.InfoAt(idx(5)); !ok || info.Class != ClassProvider {
		t.Errorf("nil need-set at AS5: %+v, %v", info, ok)
	}
	// A need-set is bound to the topology it was built over.
	g.AddAS(6, "org", "Org", "US", rpki.ARIN)
	if !mustPanic(func() { NewPropagator(g).PropagateTo(p, 4, nil, need) }) {
		t.Error("a need-set from another topology was accepted")
	}
}
