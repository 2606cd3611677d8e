package ihr

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpki"
)

func pfx(s string) netx.Prefix { return netx.MustParsePrefix(s) }

// topo: two tier-1s (1,2, peering), mid ASes 3 (cust of 1) and 4 (cust of
// 1 and 2), stubs 5 (cust of 3) and 6 (cust of 4). Vantages at 2 and 3.
func topo(t *testing.T) *astopo.Graph {
	t.Helper()
	g := astopo.NewGraph()
	for asn := uint32(1); asn <= 6; asn++ {
		g.AddAS(asn, "org", "Org", "US", rpki.ARIN)
	}
	rels := [][2]uint32{{1, 3}, {1, 4}, {2, 4}, {3, 5}, {4, 6}}
	for _, r := range rels {
		if err := g.SetProviderCustomer(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetPeer(1, 2); err != nil {
		t.Fatal(err)
	}
	return g
}

func mustIndex(t *testing.T, auths ...rov.Authorization) *rov.Index {
	t.Helper()
	ix := rov.NewIndex()
	for _, a := range auths {
		if err := ix.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func TestBuildBasic(t *testing.T) {
	g := topo(t)
	origs := []astopo.Origination{{Prefix: pfx("10.5.0.0/16"), Origin: 5}}
	rpkiIx := mustIndex(t, rov.Authorization{Prefix: pfx("10.5.0.0/16"), ASN: 5, MaxLength: 16})

	ds, err := BuildCtx(context.Background(), Config{
		Graph:         g,
		RPKI:          rpkiIx,
		VantagePoints: []uint32{2, 6},
		Originations:  origs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.PrefixOrigins) != 1 {
		t.Fatalf("prefix origins = %v", ds.PrefixOrigins)
	}
	po := ds.PrefixOrigins[0]
	if po.RPKI != rov.Valid || po.IRR != rov.NotFound {
		t.Errorf("statuses = %v/%v", po.RPKI, po.IRR)
	}
	// Vantage 2 path: 2,1,3,5. Vantage 6 path: 6,4,1,3,5.
	// Transit rows exclude origin 5 and the vantage ASes' own positions.
	transits := map[uint32]TransitRow{}
	for _, tr := range ds.Transits {
		transits[tr.Transit] = tr
	}
	if _, ok := transits[5]; ok {
		t.Error("origin must not appear in the transit dataset")
	}
	// AS 3 and AS 1 are on both paths → hegemony 1.
	for _, asn := range []uint32{1, 3} {
		tr, ok := transits[asn]
		if !ok || tr.Hegemony != 1 {
			t.Errorf("transit %d = %+v", asn, tr)
		}
	}
	// AS 3 learned the route from its customer 5; AS 1 from its customer 3.
	if !transits[3].FromCustomer || !transits[1].FromCustomer {
		t.Error("customer-learned flags wrong")
	}
	// AS 4 appears only on vantage 6's path (hegemony 0.5 untrimmed — with
	// 2 samples trim drops nothing).
	if tr, ok := transits[4]; !ok || tr.Hegemony != 0.5 {
		t.Errorf("transit 4 = %+v (ok=%v)", tr, ok)
	}
	// AS 4 learned the route from provider 1.
	if transits[4].FromCustomer {
		t.Error("AS4 learned from provider, not customer")
	}
	if ds.Visibility.Count(astopo.Origination{Prefix: pfx("10.5.0.0/16"), Origin: 5}) != 2 {
		t.Errorf("visibility = %v", ds.Visibility)
	}
}

func TestBuildROVFilteringCensorsInvalid(t *testing.T) {
	g := topo(t)
	// AS6 hijacks AS5's prefix (more specific), RPKI-invalid.
	origs := []astopo.Origination{{Prefix: pfx("10.5.1.0/24"), Origin: 6}}
	rpkiIx := mustIndex(t, rov.Authorization{Prefix: pfx("10.5.0.0/16"), ASN: 5, MaxLength: 16})

	// Without filtering the hijack is visible at vantage 2.
	ds, err := BuildCtx(context.Background(), Config{Graph: g, RPKI: rpkiIx, VantagePoints: []uint32{2}, Originations: origs})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.PrefixOrigins) != 1 || ds.PrefixOrigins[0].RPKI != rov.InvalidASN {
		t.Fatalf("unfiltered view = %+v", ds.PrefixOrigins)
	}

	// AS4 (AS6's only provider) deploys ROV: the hijack dies at AS4 and
	// no vantage sees it.
	ds, err = BuildCtx(context.Background(), Config{
		Graph:         g,
		RPKI:          rpkiIx,
		Policies:      map[uint32]Policy{4: {DropRPKIInvalid: true}},
		VantagePoints: []uint32{2},
		Originations:  origs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.PrefixOrigins) != 0 {
		t.Fatalf("filtered view should be empty: %+v", ds.PrefixOrigins)
	}
	// KeepInvisible retains the censored pair with zero visibility.
	ds, err = BuildCtx(context.Background(), Config{
		Graph:         g,
		RPKI:          rpkiIx,
		Policies:      map[uint32]Policy{4: {DropRPKIInvalid: true}},
		VantagePoints: []uint32{2},
		KeepInvisible: true,
		Originations:  origs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.PrefixOrigins) != 1 {
		t.Fatalf("KeepInvisible should retain the pair")
	}
	if ds.Visibility.Count(astopo.Origination{Prefix: pfx("10.5.1.0/24"), Origin: 6}) != 0 {
		t.Errorf("visibility = %v", ds.Visibility)
	}
}

func TestBuildIRRCustomerFiltering(t *testing.T) {
	g := topo(t)
	// AS5 announces a prefix registered to someone else in the IRR.
	origs := []astopo.Origination{{Prefix: pfx("10.9.0.0/16"), Origin: 5}}
	irrIx := mustIndex(t, rov.Authorization{Prefix: pfx("10.9.0.0/16"), ASN: 777, MaxLength: 16})

	// AS3 filters customers on IRR: the announcement dies at 3.
	ds, err := BuildCtx(context.Background(), Config{
		Graph:         g,
		IRR:           irrIx,
		Policies:      map[uint32]Policy{3: {DropIRRInvalidCustomers: true}},
		VantagePoints: []uint32{2},
		Originations:  origs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.PrefixOrigins) != 0 {
		t.Fatalf("IRR-filtered announcement should be invisible: %+v", ds.PrefixOrigins)
	}

	// The same policy does not drop announcements from *providers*: AS3
	// also imports AS1's routes; give AS1 an IRR-invalid prefix and watch
	// it pass through AS3's customer-only filter down to AS5... AS5 is a
	// stub, so instead observe from a vantage under AS3.
	g2 := topo(t)
	origs2 := []astopo.Origination{{Prefix: pfx("10.9.0.0/16"), Origin: 2}}
	ds, err = BuildCtx(context.Background(), Config{
		Graph:         g2,
		IRR:           irrIx,
		Policies:      map[uint32]Policy{3: {DropIRRInvalidCustomers: true}},
		VantagePoints: []uint32{5},
		Originations:  origs2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.PrefixOrigins) != 1 {
		t.Fatalf("provider-learned IRR-invalid route should pass: %+v", ds.PrefixOrigins)
	}
}

func TestBuildConfigValidation(t *testing.T) {
	if _, err := BuildCtx(context.Background(), Config{}); err == nil {
		t.Error("missing graph should fail")
	}
	if _, err := BuildCtx(context.Background(), Config{Graph: astopo.NewGraph()}); err == nil {
		t.Error("missing vantage points should fail")
	}
	if _, err := BuildCtx(context.Background(), Config{Graph: topo(t), VantagePoints: []uint32{2}}); err == nil {
		t.Error("missing originations should fail")
	}
}

func TestBuildNilIndexes(t *testing.T) {
	g := topo(t)
	origs := []astopo.Origination{{Prefix: pfx("10.5.0.0/16"), Origin: 5}}
	ds, err := BuildCtx(context.Background(), Config{Graph: g, VantagePoints: []uint32{2}, Originations: origs})
	if err != nil {
		t.Fatal(err)
	}
	if ds.PrefixOrigins[0].RPKI != rov.NotFound || ds.PrefixOrigins[0].IRR != rov.NotFound {
		t.Errorf("nil indexes should classify NotFound: %+v", ds.PrefixOrigins[0])
	}
}

func TestBuildDeterministicOrder(t *testing.T) {
	g := topo(t)
	var origs []astopo.Origination
	for _, asn := range []uint32{5, 6, 3} {
		origs = append(origs, astopo.Origination{Prefix: pfx("10.0.0.0/16"), Origin: asn})
	}
	ds, err := BuildCtx(context.Background(), Config{Graph: g, VantagePoints: []uint32{2, 6}, Originations: origs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ds.PrefixOrigins); i++ {
		if ds.PrefixOrigins[i].Origin < ds.PrefixOrigins[i-1].Origin {
			t.Errorf("prefix origins not sorted: %+v", ds.PrefixOrigins)
		}
	}
}

func TestIRRFilterMissRate(t *testing.T) {
	// A filter with a 100% miss rate never drops; 0% always drops.
	g := topo(t)
	origs := []astopo.Origination{{Prefix: pfx("10.9.0.0/16"), Origin: 5}}
	irrIx := mustIndex(t, rov.Authorization{Prefix: pfx("10.9.0.0/16"), ASN: 777, MaxLength: 16})

	build := func(miss float64) int {
		ds, err := BuildCtx(context.Background(), Config{
			Graph: g,
			IRR:   irrIx,
			Policies: map[uint32]Policy{
				3: {DropIRRInvalidCustomers: true, IRRFilterMissRate: miss},
			},
			VantagePoints: []uint32{2},
			Originations:  origs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return len(ds.PrefixOrigins)
	}
	if got := build(0); got != 0 {
		t.Errorf("perfect filter leaked %d pairs", got)
	}
	if got := build(1.0); got != 1 {
		t.Errorf("always-miss filter dropped the pair (visible=%d)", got)
	}
}

func TestFilterMissesDeterministic(t *testing.T) {
	p := pfx("10.0.0.0/16")
	a := filterMisses(42, p, 0.5)
	for i := 0; i < 10; i++ {
		if filterMisses(42, p, 0.5) != a {
			t.Fatal("filterMisses must be deterministic")
		}
	}
	if filterMisses(42, p, 0) {
		t.Error("zero rate must never miss")
	}
	if !filterMisses(42, p, 1.0) {
		t.Error("rate 1.0 must always miss")
	}
	// Roughly rate-proportional across many inputs.
	miss := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if filterMisses(uint32(i), p, 0.1) {
			miss++
		}
	}
	frac := float64(miss) / n
	if frac < 0.05 || frac > 0.2 {
		t.Errorf("miss fraction = %.3f, want ≈0.1", frac)
	}
}

// An IRR-InvalidASN flood reads its representative prefix: whether each
// IRR filter misses depends on it. So a template for one prefix never
// answers for another of the same origin and statuses: here AS3's
// filter passes one prefix and drops the other, and a build of the
// second through a table holding the first sees what a build without
// the table sees.
func TestTemplateKeyReadsInvalidASNPrefix(t *testing.T) {
	const rate = 0.5
	var passed, dropped netx.Prefix
	for i := 0; i < 256 && (!passed.IsValid() || !dropped.IsValid()); i++ {
		p := pfx(fmt.Sprintf("10.%d.0.0/16", i))
		if filterMisses(3, p, rate) {
			passed = p
		} else {
			dropped = p
		}
	}
	cfg := Config{
		Graph:         topo(t),
		IRR:           mustIndex(t, rov.Authorization{Prefix: pfx("10.0.0.0/8"), ASN: 777, MaxLength: 24}),
		Policies:      map[uint32]Policy{3: {DropIRRInvalidCustomers: true, IRRFilterMissRate: rate}},
		VantagePoints: []uint32{2},
	}
	tab := NewTemplates(cfg, 16)
	for _, p := range []netx.Prefix{passed, dropped, passed} {
		c := cfg
		c.Originations = []astopo.Origination{{Prefix: p, Origin: 5}}
		want, err := BuildCtx(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		c.Templates = tab
		got, err := BuildCtx(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s through a table holding other prefixes of AS5: %d pairs seen, without the table %d",
				p, len(got.PrefixOrigins), len(want.PrefixOrigins))
		}
	}
	if tab.Len() != 2 {
		t.Fatalf("the table holds %d templates, want one per prefix", tab.Len())
	}
}
