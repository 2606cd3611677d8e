package irr

import (
	"bytes"
	"slices"
	"testing"

	"manrsmeter/internal/netx"
)

// mixedDatabase registers routes every way a database takes them, in
// one interleaved order: parsed objects (one route with a descr, a
// route6, a mntner, an as-set) and AddRoute routes of both families.
func mixedDatabase(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("mixed")
	mustAddObj(t, db, obj("route", "192.0.2.0/24", "descr", "parsed net", "origin", "AS64500", "mnt-by", "MAINT-X", "source", "MIXED"))
	mustAddRoute(t, db.AddRoute, "10.0.0.0/16", 64500)
	mustAddObj(t, db, obj("mntner", "MAINT-X", "auth", "PLAIN-PW hunter2", "source", "MIXED"))
	mustAddRoute(t, db.AddRoute, "10.9.0.0/16", 64509)
	mustAddRoute(t, db.AddRoute, "2001:db8::/32", 64501)
	mustAddObj(t, db, obj("route6", "2001:db8:1::/48", "origin", "AS64502", "source", "MIXED"))
	mustAddRoute(t, db.AddRoute, "2001:db8:9::/48", 64500)
	mustAddObj(t, db, obj("as-set", "AS-MIXED", "members", "AS64500, AS64501"))
	mustAddRoute(t, db.AddRoute, "192.0.2.0/24", 64501)
	return db
}

func mustAddRoute(t *testing.T, add func(netx.Prefix, uint32) error, prefix string, origin uint32) {
	t.Helper()
	if err := add(netx.MustParsePrefix(prefix), origin); err != nil {
		t.Fatal(err)
	}
}

// mixedDump is what Dump writes for mixedDatabase: parsed objects
// verbatim and AddRoute routes as route/origin/source lines, in
// registration order, as when AddRoute built an RPSL object per route.
const mixedDump = `route: 192.0.2.0/24
descr: parsed net
origin: AS64500
mnt-by: MAINT-X
source: MIXED

route: 10.0.0.0/16
origin: AS64500
source: MIXED

mntner: MAINT-X
auth: PLAIN-PW hunter2
source: MIXED

route: 10.9.0.0/16
origin: AS64509
source: MIXED

route6: 2001:db8::/32
origin: AS64501
source: MIXED

route6: 2001:db8:1::/48
origin: AS64502
source: MIXED

route6: 2001:db8:9::/48
origin: AS64500
source: MIXED

as-set: AS-MIXED
members: AS64500, AS64501

route: 192.0.2.0/24
origin: AS64501
source: MIXED

`

// TestDumpRendersRowsInRegistrationOrder pins Dump's bytes on a mixed
// database and loads them back: the same rows (prefix, origin, source,
// descr) and the same object count.
func TestDumpRendersRowsInRegistrationOrder(t *testing.T) {
	db := mixedDatabase(t)
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != mixedDump {
		t.Fatalf("Dump wrote\n%s\nwant\n%s", buf.String(), mixedDump)
	}
	if db.NumObjects() != 9 || db.NumRoutes() != 7 {
		t.Errorf("%d objects, %d routes; want 9 and 7", db.NumObjects(), db.NumRoutes())
	}
	back := NewDatabase(db.Name)
	if skipped, err := back.Load(&buf); err != nil || skipped != 0 {
		t.Fatalf("Load: skipped=%d err=%v", skipped, err)
	}
	if got, want := back.Routes(), db.Routes(); !slices.Equal(got, want) {
		t.Errorf("loaded rows\n%+v\nwant\n%+v", got, want)
	}
	if back.NumObjects() != db.NumObjects() {
		t.Errorf("loaded %d objects, dumped %d", back.NumObjects(), db.NumObjects())
	}
	if got := db.Routes()[0]; got.Source != "MIXED" || got.Descr != "parsed net" {
		t.Errorf("parsed route reads %+v", got)
	}
}

// TestWhoisAnswersFromRows: route and origin queries over the mixed
// database answer from the rows, byte for byte
// as when every route carried its own source string.
func TestWhoisAnswersFromRows(t *testing.T) {
	reg := NewRegistry()
	reg.AddDatabase(mixedDatabase(t))
	srv := NewQueryServer(reg)
	for q, want := range map[string]string{
		"-x 192.0.2.0/24":    "A102\nroute: 192.0.2.0/24\norigin: AS64500\nsource: MIXED\n\nroute: 192.0.2.0/24\norigin: AS64501\nsource: MIXED\n\nC\n",
		"-x 10.9.0.0/16":     "A50\nroute: 10.9.0.0/16\norigin: AS64509\nsource: MIXED\n\nC\n",
		"-x 2001:db8:9::/48": "A55\nroute6: 2001:db8:9::/48\norigin: AS64500\nsource: MIXED\n\nC\n",
		"!gAS64500":          "A25\n10.0.0.0/16 192.0.2.0/24\nC\n",
		"!6AS64500":          "A16\n2001:db8:9::/48\nC\n",
		"!gAS64501":          "A13\n192.0.2.0/24\nC\n",
		"!6AS64502":          "A16\n2001:db8:1::/48\nC\n",
	} {
		if got := srv.Answer(q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

// TestAddRouteStoresOnlyTheRow: AddRoute appends a row and a dump slot,
// so a thousand calls cost a handful of slice growths and no RPSL
// object; it still refuses what the object path refused.
func TestAddRouteStoresOnlyTheRow(t *testing.T) {
	db := NewDatabase("T")
	p := netx.MustParsePrefix("10.0.0.0/16")
	if allocs := testing.AllocsPerRun(1000, func() { _ = db.AddRoute(p, 64500) }); allocs > 0.1 {
		t.Errorf("AddRoute allocates %.2f times per call, want amortized slice growth only", allocs)
	}
	for _, bad := range []netx.Prefix{{}, netx.MustParsePrefix("::ffff:10.0.0.0/104")} {
		if err := db.AddRoute(bad, 1); err == nil {
			t.Errorf("AddRoute(%v) registered a route", bad)
		}
	}
}
