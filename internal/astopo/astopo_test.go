package astopo

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/rpki"
)

func pfx(s string) netx.Prefix { return netx.MustParsePrefix(s) }

// diamond builds the classic test topology:
//
//	    1 (tier1)      2 (tier1, peer of 1)
//	   / \            /
//	  3   4 ---------+     (3,4 customers of 1; 4 customer of 2)
//	 /     \
//	5       6              (5 customer of 3; 6 customer of 4)
//
// plus 5—6 peering.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	for asn := uint32(1); asn <= 6; asn++ {
		g.AddAS(asn, "org", "Org", "US", rpki.ARIN)
	}
	mustRel := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustRel(g.SetProviderCustomer(1, 3))
	mustRel(g.SetProviderCustomer(1, 4))
	mustRel(g.SetProviderCustomer(2, 4))
	mustRel(g.SetProviderCustomer(3, 5))
	mustRel(g.SetProviderCustomer(4, 6))
	mustRel(g.SetPeer(1, 2))
	mustRel(g.SetPeer(5, 6))
	return g
}

func TestAddASIdempotent(t *testing.T) {
	g := NewGraph()
	a1 := g.AddAS(10, "o1", "Org One", "US", rpki.ARIN)
	a2 := g.AddAS(10, "o2", "Other", "DE", rpki.RIPE)
	if a1 != a2 {
		t.Error("re-adding an ASN should return the existing record")
	}
	if g.NumASes() != 1 {
		t.Errorf("NumASes = %d", g.NumASes())
	}
	if got := g.Org("o1").ASNs; !reflect.DeepEqual(got, []uint32{10}) {
		t.Errorf("org ASNs = %v", got)
	}
}

func TestRelationshipErrors(t *testing.T) {
	g := NewGraph()
	g.AddAS(1, "o", "O", "US", rpki.ARIN)
	if err := g.SetProviderCustomer(1, 99); err == nil {
		t.Error("unknown customer should fail")
	}
	if err := g.SetProviderCustomer(99, 1); err == nil {
		t.Error("unknown provider should fail")
	}
	if err := g.SetProviderCustomer(1, 1); err == nil {
		t.Error("self-relationship should fail")
	}
	if err := g.SetPeer(1, 1); err == nil {
		t.Error("self-peering should fail")
	}
}

func TestRelationshipDeduplication(t *testing.T) {
	g := diamond(t)
	if err := g.SetProviderCustomer(1, 3); err != nil {
		t.Fatal(err)
	}
	if got := g.AS(1).Customers; !reflect.DeepEqual(got, []uint32{3, 4}) {
		t.Errorf("customers after duplicate add = %v", got)
	}
	if err := g.SetPeer(2, 1); err != nil { // reverse direction of existing edge
		t.Fatal(err)
	}
	if got := g.AS(1).Peers; !reflect.DeepEqual(got, []uint32{2}) {
		t.Errorf("peers after duplicate add = %v", got)
	}
}

func TestCustomerDegree(t *testing.T) {
	g := diamond(t)
	if g.CustomerDegree(1) != 2 || g.CustomerDegree(5) != 0 || g.CustomerDegree(99) != 0 {
		t.Error("degrees wrong")
	}
}

func TestPropagateNoFilter(t *testing.T) {
	g := diamond(t)
	p := pfx("10.5.0.0/16")
	tree := g.Propagate(p, 5, nil)
	// Everyone hears a route to AS5's prefix.
	for asn := uint32(1); asn <= 6; asn++ {
		if !tree.Has(asn) {
			t.Errorf("AS%d has no route", asn)
		}
	}
	tests := []struct {
		asn  uint32
		path []uint32
	}{
		{5, []uint32{5}},
		{3, []uint32{3, 5}},
		{1, []uint32{1, 3, 5}},
		{6, []uint32{6, 5}},       // peer route 6—5 beats provider route via 4
		{4, []uint32{4, 6, 5}},    // customer route via 6 (peer route of 6 not exported up!)—see below
		{2, []uint32{2, 1, 3, 5}}, // peer route from 1
	}
	for _, tt := range tests {
		got := tree.PathFrom(tt.asn)
		if tt.asn == 4 {
			// AS6 learned 6—5 via *peer* link, so it must NOT export it to
			// its provider 4; AS4 should instead route via provider 1.
			want := []uint32{4, 1, 3, 5}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("PathFrom(4) = %v, want %v (valley-free violated?)", got, want)
			}
			continue
		}
		if !reflect.DeepEqual(got, tt.path) {
			t.Errorf("PathFrom(%d) = %v, want %v", tt.asn, got, tt.path)
		}
	}
	if got := tree.PathFrom(99); got != nil {
		t.Errorf("PathFrom(unknown) = %v", got)
	}
}

func TestPropagateValleyFree(t *testing.T) {
	// A route learned from a provider must not be exported to another
	// provider or peer: AS5's view of a prefix originated by AS2 must go
	// through the hierarchy, and AS3 must never transit 5→3 for it.
	g := diamond(t)
	tree := g.Propagate(pfx("10.2.0.0/16"), 2, nil)
	path5 := tree.PathFrom(5)
	// 5 hears from its provider 3 (3←1←peer 2) or via peer 6 (6←4←2).
	// 6's route to AS2 is via provider 4, so 6 must NOT export to peer 5.
	want := []uint32{5, 3, 1, 2}
	if !reflect.DeepEqual(path5, want) {
		t.Errorf("PathFrom(5) = %v, want %v", path5, want)
	}
	// Class at 5 must be Provider.
	if info, _ := tree.Info(5); info.Class != ClassProvider {
		t.Errorf("class at 5 = %v", info.Class)
	}
}

func TestPropagateCustomerPreferredOverPeer(t *testing.T) {
	// AS1 hears AS4's prefix from customer 4 directly; even if a peer path
	// via 2 existed it must prefer the customer route.
	g := diamond(t)
	tree := g.Propagate(pfx("10.4.0.0/16"), 4, nil)
	if got := tree.PathFrom(1); !reflect.DeepEqual(got, []uint32{1, 4}) {
		t.Errorf("PathFrom(1) = %v", got)
	}
	if info, _ := tree.Info(1); info.Class != ClassCustomer {
		t.Errorf("class at 1 = %v", info.Class)
	}
}

func TestPropagateWithROVFilter(t *testing.T) {
	// AS1 deploys ROV and drops the (hijacked) prefix: everything beyond
	// AS1 on that branch loses the route; others keep it.
	g := diamond(t)
	p := pfx("10.5.0.0/16")
	filter := func(importer, neighbor uint32, prefix netx.Prefix, origin uint32) bool {
		return importer != 1
	}
	tree := g.Propagate(p, 5, filter)
	if tree.Has(1) {
		t.Error("AS1 should have filtered the route")
	}
	// AS2's only valley-free path was via peer 1 → gone.
	if tree.Has(2) {
		t.Errorf("AS2 should not hear the route (path = %v)", tree.PathFrom(2))
	}
	// AS4 heard it via customer 6? No: 6 learned via peer — not exported
	// upward. AS4's path was via provider 1 → gone.
	if tree.Has(4) {
		t.Errorf("AS4 should not hear the route (path = %v)", tree.PathFrom(4))
	}
	// 3, 5, 6 still do.
	for _, asn := range []uint32{3, 5, 6} {
		if !tree.Has(asn) {
			t.Errorf("AS%d lost the route", asn)
		}
	}
}

func TestPropagateUnknownOrigin(t *testing.T) {
	g := diamond(t)
	tree := g.Propagate(pfx("10.0.0.0/8"), 999, nil)
	if tree.Len() != 0 || len(tree.Reached()) != 0 {
		t.Errorf("unknown origin should reach nobody: %v", tree.Reached())
	}
}

func TestASRelRoundTrip(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := g.WriteASRel(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "1|3|-1") || !strings.Contains(text, "1|2|0") {
		t.Errorf("as-rel output missing edges:\n%s", text)
	}
	// Peer edges emitted once (skip the header comment).
	peerEdges := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "#") && strings.HasSuffix(line, "|0") {
			peerEdges++
		}
	}
	if peerEdges != 2 {
		t.Errorf("peer edge count = %d in:\n%s", peerEdges, text)
	}
	g2 := NewGraph()
	if err := g2.ReadASRel(strings.NewReader(text)); err != nil {
		t.Fatal(err)
	}
	if g2.NumASes() != 6 {
		t.Errorf("reparsed ASes = %d", g2.NumASes())
	}
	if !reflect.DeepEqual(g2.AS(1).Customers, []uint32{3, 4}) {
		t.Errorf("reparsed customers = %v", g2.AS(1).Customers)
	}
	if !reflect.DeepEqual(g2.AS(5).Peers, []uint32{6}) {
		t.Errorf("reparsed peers = %v", g2.AS(5).Peers)
	}
}

func TestReadASRelErrors(t *testing.T) {
	g := NewGraph()
	if err := g.ReadASRel(strings.NewReader("1|2|5\n")); err == nil {
		t.Error("unknown relationship code should fail")
	}
	if err := g.ReadASRel(strings.NewReader("bogus\n")); err == nil {
		t.Error("malformed line should fail")
	}
	if err := g.ReadASRel(strings.NewReader("# comment only\n\n")); err != nil {
		t.Errorf("comments/blanks should parse: %v", err)
	}
	for _, bad := range []string{"1|2|-1x", "1|2|-1|bgp|x", "1|2", "1||-1", "-1|2|0", "4294967296|2|0"} {
		if err := NewGraph().ReadASRel(strings.NewReader(bad + "\n")); err == nil || !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%q: error %v, want one naming line 1", bad, err)
		}
	}
	if err := NewGraph().ReadASRel(strings.NewReader("1|2|-1|bgp\n")); err != nil {
		t.Errorf("CAIDA's source field should parse: %v", err)
	}
}

func TestExportsAS2OrgAndPrefix2AS(t *testing.T) {
	g := NewGraph()
	g.AddAS(64500, "org-a", "Alpha Networks", "US", rpki.ARIN)
	var buf bytes.Buffer
	if err := g.WriteAS2Org(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "64500|org-a|Alpha Networks|US") {
		t.Errorf("as2org = %q", buf.String())
	}
	buf.Reset()
	origs := []Origination{{Prefix: pfx("10.0.0.0/8"), Origin: 64500}, {Prefix: pfx("192.0.2.0/24"), Origin: 64500}}
	if err := WritePrefix2AS(&buf, origs); err != nil {
		t.Fatal(err)
	}
	want := "10.0.0.0\t8\t64500\n192.0.2.0\t24\t64500\n"
	if buf.String() != want {
		t.Errorf("prefix2as = %q, want %q", buf.String(), want)
	}
}

func TestPropagateDeterminism(t *testing.T) {
	g := diamond(t)
	p := pfx("10.5.0.0/16")
	base := g.Propagate(p, 5, nil)
	for i := 0; i < 20; i++ {
		tree := g.Propagate(p, 5, nil)
		if !reflect.DeepEqual(tree.Reached(), base.Reached()) {
			t.Fatalf("run %d differs: %v vs %v", i, tree.Reached(), base.Reached())
		}
		for _, asn := range base.Reached() {
			bi, _ := base.Info(asn)
			ti, _ := tree.Info(asn)
			if bi != ti {
				t.Fatalf("run %d: info for AS%d differs: %+v vs %+v", i, asn, ti, bi)
			}
		}
	}
}

func TestReadAS2OrgRoundTrip(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := g.WriteAS2Org(&buf); err != nil {
		t.Fatal(err)
	}
	g2 := NewGraph()
	if err := g2.ReadAS2Org(&buf); err != nil {
		t.Fatal(err)
	}
	if g2.NumASes() != g.NumASes() {
		t.Fatalf("ases = %d, want %d", g2.NumASes(), g.NumASes())
	}
	if got := g2.AS(1); got == nil || got.OrgID != "org" || got.CC != "US" {
		t.Errorf("AS1 = %+v", got)
	}
	// Updating orgs on an existing graph keeps relationships.
	g3 := diamond(t)
	buf.Reset()
	if err := g.WriteAS2Org(&buf); err != nil {
		t.Fatal(err)
	}
	if err := g3.ReadAS2Org(&buf); err != nil {
		t.Fatal(err)
	}
	if len(g3.AS(1).Customers) != 2 {
		t.Error("relationships lost on as2org reimport")
	}
	// Malformed lines fail.
	if err := NewGraph().ReadAS2Org(strings.NewReader("only|three|fields\n")); err == nil {
		t.Error("short line should fail")
	}
	if err := NewGraph().ReadAS2Org(strings.NewReader("x|a|b|c\n")); err == nil {
		t.Error("bad ASN should fail")
	}
}

func TestReadPrefix2ASRoundTrip(t *testing.T) {
	origs := []Origination{{Prefix: pfx("10.5.0.0/16"), Origin: 5}, {Prefix: pfx("10.6.0.0/16"), Origin: 6}}
	var buf bytes.Buffer
	if err := WritePrefix2AS(&buf, origs); err != nil {
		t.Fatal(err)
	}
	g := NewGraph()
	got, err := g.ReadPrefix2AS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, origs) {
		t.Errorf("originations = %+v, want %+v", got, origs)
	}
	if g.AS(5) == nil || g.AS(6) == nil {
		t.Error("origins missing from the graph should be added as placeholders")
	}
	if _, err := NewGraph().ReadPrefix2AS(strings.NewReader("10.0.0.0 8\n")); err == nil {
		t.Error("two-field line should fail")
	}
	if _, err := NewGraph().ReadPrefix2AS(strings.NewReader("banana 8 1\n")); err == nil {
		t.Error("bad prefix should fail")
	}
}
