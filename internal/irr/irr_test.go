package irr

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpsl"
)

func obj(pairs ...string) *rpsl.Object {
	o := &rpsl.Object{}
	for i := 0; i < len(pairs); i += 2 {
		o.Add(pairs[i], pairs[i+1])
	}
	return o
}

func TestAddObjectRoute(t *testing.T) {
	db := NewDatabase("radb")
	if db.Name != "RADB" {
		t.Errorf("Name = %q, want upper-cased", db.Name)
	}
	if err := db.AddObject(obj("route", "192.0.2.0/24", "origin", "AS64500", "descr", "test net")); err != nil {
		t.Fatal(err)
	}
	rs := db.Routes()
	if len(rs) != 1 {
		t.Fatalf("Routes = %d", len(rs))
	}
	if rs[0].Origin != 64500 || rs[0].Prefix.String() != "192.0.2.0/24" || rs[0].Source != "RADB" || rs[0].Descr != "test net" {
		t.Errorf("route = %+v", rs[0])
	}
	auth := rs[0].Authorization()
	if auth.MaxLength != 24 {
		t.Errorf("IRR max length must equal prefix length, got %d", auth.MaxLength)
	}
}

func TestAddObjectErrors(t *testing.T) {
	db := NewDatabase("TEST")
	cases := []*rpsl.Object{
		obj("route", "not-a-prefix", "origin", "AS1"),
		obj("route", "192.0.2.0/24"),                     // missing origin
		obj("route", "192.0.2.0/24", "origin", "banana"), // bad origin
		obj("route", "2001:db8::/32", "origin", "AS1"),   // v6 in route
		obj("route6", "192.0.2.0/24", "origin", "AS1"),   // v4 in route6
	}
	for i, o := range cases {
		if err := db.AddObject(o); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// Uninterpreted classes are retained without error.
	if err := db.AddObject(obj("mntner", "MAINT-X", "source", "TEST")); err != nil {
		t.Errorf("mntner should be accepted: %v", err)
	}
	if db.NumObjects() != 1 {
		t.Errorf("NumObjects = %d, want 1", db.NumObjects())
	}
}

// A mntner object is retained verbatim, auth lines included, and adds
// nothing the registry validates against.
func TestMntnerObjectParsing(t *testing.T) {
	db := NewDatabase("TEST")
	if err := db.AddObject(obj("mntner", "MAINT-OBJ", "auth", "PLAIN-PW hunter2", "source", "TEST")); err != nil {
		t.Fatal(err)
	}
	if db.NumObjects() != 1 || db.NumRoutes() != 0 {
		t.Fatalf("objects = %d, routes = %d; want 1, 0", db.NumObjects(), db.NumRoutes())
	}
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MAINT-OBJ", "PLAIN-PW hunter2"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("dump lost %q:\n%s", want, buf.String())
		}
	}
}

func TestRegistryValidate(t *testing.T) {
	db := NewDatabase("RIPE")
	db.AddRoute(netx.MustParsePrefix("10.0.0.0/16"), 64500)
	db.AddRoute(netx.MustParsePrefix("2001:db8::/32"), 64500)
	reg := NewRegistry()
	reg.AddDatabase(db)

	tests := []struct {
		p    string
		asn  uint32
		want rov.Status
	}{
		{"10.0.0.0/16", 64500, rov.Valid},
		{"10.0.0.0/24", 64500, rov.InvalidLength}, // more specific than registered
		{"10.0.0.0/16", 64999, rov.InvalidASN},
		{"10.9.0.0/16", 64500, rov.NotFound},
		{"2001:db8::/32", 64500, rov.Valid},
		{"2001:db8::/48", 64500, rov.InvalidLength},
	}
	for _, tt := range tests {
		if got := reg.Validate(netx.MustParsePrefix(tt.p), tt.asn); got != tt.want {
			t.Errorf("Validate(%s, AS%d) = %v, want %v", tt.p, tt.asn, got, tt.want)
		}
	}
	if reg.NumRoutes() != 2 {
		t.Errorf("NumRoutes = %d", reg.NumRoutes())
	}
}

func TestRegistryMultipleDatabases(t *testing.T) {
	// A route registered in any attached database validates; mirrors add
	// authorizations, they never remove them.
	ripe := NewDatabase("RIPE")
	ripe.AddRoute(netx.MustParsePrefix("10.0.0.0/16"), 64500)
	radb := NewDatabase("RADB")
	radb.AddRoute(netx.MustParsePrefix("10.0.0.0/16"), 64501)

	reg := NewRegistry()
	reg.AddDatabase(ripe)
	p := netx.MustParsePrefix("10.0.0.0/16")
	if got := reg.Validate(p, 64501); got != rov.InvalidASN {
		t.Errorf("before RADB: %v", got)
	}
	reg.AddDatabase(radb)
	if got := reg.Validate(p, 64501); got != rov.Valid {
		t.Errorf("after RADB: %v", got)
	}
	if got := reg.Validate(p, 64500); got != rov.Valid {
		t.Errorf("original origin after RADB: %v", got)
	}
	if len(reg.Databases()) != 2 {
		t.Errorf("Databases = %d", len(reg.Databases()))
	}
}

func TestExpandASSet(t *testing.T) {
	db := NewDatabase("RADB")
	mustAddObj(t, db, obj("as-set", "AS-TOP", "members", "AS1, AS2, AS-MID"))
	mustAddObj(t, db, obj("as-set", "AS-MID", "members", "AS3, AS-TOP, AS-MISSING")) // cycle + missing
	reg := NewRegistry()
	reg.AddDatabase(db)

	asns, missing := reg.ExpandASSet("as-top") // case-insensitive
	if !slices.Equal(asns, []uint32{1, 2, 3}) {
		t.Errorf("asns = %v", asns)
	}
	if !slices.Equal(missing, []string{"AS-MISSING"}) {
		t.Errorf("missing = %v", missing)
	}

	asns, missing = reg.ExpandASSet("AS-NOWHERE")
	if len(asns) != 0 || !slices.Equal(missing, []string{"AS-NOWHERE"}) {
		t.Errorf("unknown set: %v %v", asns, missing)
	}
}

func TestExpandASSetAcrossDatabases(t *testing.T) {
	a := NewDatabase("A")
	mustAddObj(t, a, obj("as-set", "AS-X", "members", "AS10, AS-Y"))
	b := NewDatabase("B")
	mustAddObj(t, b, obj("as-set", "AS-Y", "members", "AS20"))
	reg := NewRegistry()
	reg.AddDatabase(a)
	reg.AddDatabase(b)
	asns, missing := reg.ExpandASSet("AS-X")
	if !slices.Equal(asns, []uint32{10, 20}) || len(missing) != 0 {
		t.Errorf("cross-db expand = %v missing %v", asns, missing)
	}
}

func mustAddObj(t *testing.T, db *Database, o *rpsl.Object) {
	t.Helper()
	if err := db.AddObject(o); err != nil {
		t.Fatal(err)
	}
}

func TestLoadAndDumpRoundTrip(t *testing.T) {
	const snapshot = `route: 192.0.2.0/24
origin: AS64500
source: TEST

route6: 2001:db8::/32
origin: AS64500
source: TEST

as-set: AS-TEST
members: AS64500
source: TEST
`
	db := NewDatabase("TEST")
	skipped, err := db.Load(strings.NewReader(snapshot))
	if err != nil || skipped != 0 {
		t.Fatalf("Load: skipped=%d err=%v", skipped, err)
	}
	if db.NumObjects() != 3 || db.NumRoutes() != 2 {
		t.Fatalf("objects=%d routes=%d", db.NumObjects(), db.NumRoutes())
	}
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase("TEST")
	if _, err := db2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if db2.NumObjects() != db.NumObjects() || db2.NumRoutes() != db.NumRoutes() {
		t.Errorf("round trip lost objects: %d/%d routes %d/%d",
			db2.NumObjects(), db.NumObjects(), db2.NumRoutes(), db.NumRoutes())
	}
}

func TestLoadSkipsMalformed(t *testing.T) {
	const snapshot = `route: bogus-prefix
origin: AS64500
source: TEST

route: 10.0.0.0/8
origin: AS64500
source: TEST
`
	db := NewDatabase("TEST")
	skipped, err := db.Load(strings.NewReader(snapshot))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 || db.NumRoutes() != 1 {
		t.Errorf("skipped=%d routes=%d", skipped, db.NumRoutes())
	}
}

func TestRegistryIndexReuse(t *testing.T) {
	db := NewDatabase("T")
	db.AddRoute(netx.MustParsePrefix("10.0.0.0/8"), 1)
	reg := NewRegistry()
	reg.AddDatabase(db)
	ix1, err := reg.Index()
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := reg.Index()
	if err != nil {
		t.Fatal(err)
	}
	if ix1 != ix2 {
		t.Error("Index should be cached between calls with no changes")
	}
	reg.AddDatabase(NewDatabase("U"))
	ix3, err := reg.Index()
	if err != nil {
		t.Fatal(err)
	}
	if ix3 == ix1 {
		t.Error("Index should rebuild after AddDatabase")
	}
}
