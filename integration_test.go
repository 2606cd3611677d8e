package manrsmeter

// Integration tests: exercise the cross-module seams at world scale —
// the on-disk dataset formats round-trip, and the wire daemons (RTR
// cache, BGP collector) are oracles for the in-memory pipeline: each
// reaches the same answer over real sockets.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/bgp"
	"manrsmeter/internal/bgp/collector"
	"manrsmeter/internal/bgp/mrt"
	"manrsmeter/internal/bgp/wire"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/irr"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/rpki"
	"manrsmeter/internal/rpki/rtr"
	"manrsmeter/internal/synth"
)

func integrationWorld(t *testing.T) *synth.World {
	t.Helper()
	cfg := synth.NewConfig(11)
	cfg.Tier1s, cfg.LargeISPs, cfg.MediumISPs, cfg.SmallASes, cfg.CDNs = 3, 3, 50, 500, 6
	cfg.MANRSSmall, cfg.MANRSMedium, cfg.MANRSLarge, cfg.MANRSCDNs = 50, 15, 2, 3
	return generateWorld(t, cfg)
}

// wireWorld is a ~230-AS world: small enough that replaying every
// vantage point's RIB over BGP takes seconds under -race.
func wireWorld(t *testing.T, seed int64) *synth.World {
	t.Helper()
	cfg := synth.NewConfig(seed)
	cfg.Tier1s, cfg.LargeISPs, cfg.MediumISPs, cfg.SmallASes, cfg.CDNs = 3, 2, 20, 200, 3
	cfg.MANRSSmall, cfg.MANRSMedium, cfg.MANRSLarge, cfg.MANRSCDNs = 20, 6, 1, 1
	return generateWorld(t, cfg)
}

func generateWorld(t *testing.T, cfg synth.Config) *synth.World {
	t.Helper()
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestASRelExportImportPreservesTopology(t *testing.T) {
	w := integrationWorld(t)
	var buf bytes.Buffer
	if err := w.Graph.WriteASRel(&buf); err != nil {
		t.Fatal(err)
	}
	g2 := astopo.NewGraph()
	if err := g2.ReadASRel(&buf); err != nil {
		t.Fatal(err)
	}
	if g2.NumASes() != w.Graph.NumASes() {
		t.Fatalf("reimported %d ASes, want %d", g2.NumASes(), w.Graph.NumASes())
	}
	for _, asn := range w.Graph.ASNs() {
		a, b := w.Graph.AS(asn), g2.AS(asn)
		if !reflect.DeepEqual(a.Customers, b.Customers) ||
			!reflect.DeepEqual(a.Providers, b.Providers) ||
			!reflect.DeepEqual(a.Peers, b.Peers) {
			t.Fatalf("AS%d relationships differ after round trip", asn)
		}
	}
	// Customer degrees — and therefore the paper's size classes — are
	// preserved.
	for _, asn := range w.Graph.ASNs() {
		if w.Graph.CustomerDegree(asn) != g2.CustomerDegree(asn) {
			t.Fatalf("AS%d degree differs", asn)
		}
	}
}

func TestVRPArchiveRoundTripAtScale(t *testing.T) {
	w := integrationWorld(t)
	vrps, err := w.VRPsAt(w.Date(w.Config.EndYear))
	if err != nil {
		t.Fatal(err)
	}
	if len(vrps) == 0 {
		t.Fatal("no VRPs")
	}
	var buf bytes.Buffer
	if err := rpki.WriteVRPCSV(&buf, vrps); err != nil {
		t.Fatal(err)
	}
	got, err := rpki.ReadVRPCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vrps) {
		t.Fatalf("VRP archive round trip lost data: %d vs %d", len(got), len(vrps))
	}
}

func TestIRRDumpLoadAtScale(t *testing.T) {
	w := integrationWorld(t)
	for _, db := range w.IRRRegistry.Databases() {
		var buf bytes.Buffer
		if err := db.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		db2 := irr.NewDatabase(db.Name)
		skipped, err := db2.Load(&buf)
		if err != nil || skipped != 0 {
			t.Fatalf("%s: load skipped=%d err=%v", db.Name, skipped, err)
		}
		if db2.NumObjects() != db.NumObjects() || db2.NumRoutes() != db.NumRoutes() {
			t.Fatalf("%s: %d/%d objects, %d/%d routes", db.Name,
				db2.NumObjects(), db.NumObjects(), db2.NumRoutes(), db.NumRoutes())
		}
	}
}

func TestRTRDeliversRelyingPartyOutput(t *testing.T) {
	w := integrationWorld(t)
	vrps, err := w.VRPsAt(w.Date(w.Config.EndYear))
	if err != nil {
		t.Fatal(err)
	}
	srv := rtr.NewServer(vrps)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := rtr.Fetch(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.VRPs, vrps) {
		t.Fatalf("RTR snapshot differs: %d vs %d VRPs", len(res.VRPs), len(vrps))
	}
	// Validation through the RTR-fetched set matches direct validation.
	direct, err := rpki.BuildIndex(vrps)
	if err != nil {
		t.Fatal(err)
	}
	fetched, err := rpki.BuildIndex(res.VRPs)
	if err != nil {
		t.Fatal(err)
	}
	for _, og := range w.OriginationsAt(w.Date(w.Config.EndYear))[:200] {
		if direct.Validate(og.Prefix, og.Origin) != fetched.Validate(og.Prefix, og.Origin) {
			t.Fatalf("validation differs for %s AS%d", og.Prefix, og.Origin)
		}
	}
}

func TestMRTCollectorViewRoundTrip(t *testing.T) {
	w := integrationWorld(t)
	origs := w.OriginationsAt(w.Date(w.Config.EndYear))
	if len(origs) > 300 {
		origs = origs[:300]
	}
	peers := make([]mrt.Peer, len(w.VantagePoints))
	peerIdx := map[uint32]uint16{}
	for i, asn := range w.VantagePoints {
		peers[i] = mrt.Peer{BGPID: [4]byte{1, 2, 3, byte(i)}, Addr: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), ASN: asn}
		peerIdx[asn] = uint16(i)
	}
	var buf bytes.Buffer
	wr := mrt.NewWriter(&buf, w.Date(w.Config.EndYear))
	if err := wr.WritePeerIndexTable([4]byte{9, 9, 9, 9}, "it", peers); err != nil {
		t.Fatal(err)
	}
	wrote := 0
	wantPaths := map[string][][]uint32{}
	for _, og := range origs {
		tree := w.Graph.Propagate(og.Prefix, og.Origin, nil)
		var entries []mrt.RIBEntry
		for _, vp := range w.VantagePoints {
			if path := tree.PathFrom(vp); path != nil {
				entries = append(entries, mrt.RIBEntry{PeerIndex: peerIdx[vp], OriginatedTime: w.Date(2022), Path: path})
				wantPaths[og.Prefix.String()] = append(wantPaths[og.Prefix.String()], path)
			}
		}
		if len(entries) == 0 {
			continue
		}
		if err := wr.WriteRIB(og.Prefix, entries); err != nil {
			t.Fatal(err)
		}
		wrote++
	}
	dump, err := mrt.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Records) != wrote {
		t.Fatalf("reparsed %d records, wrote %d", len(dump.Records), wrote)
	}
	// Paths survive the archive byte-exactly.
	for _, rec := range dump.Records {
		want := wantPaths[rec.Prefix.String()]
		if len(want) != len(rec.Entries) {
			t.Fatalf("%s: %d entries, want %d", rec.Prefix, len(rec.Entries), len(want))
		}
		for i, e := range rec.Entries {
			if !reflect.DeepEqual(e.Path, want[i]) {
				t.Fatalf("%s entry %d: path %v, want %v", rec.Prefix, i, e.Path, want[i])
			}
		}
	}
}

// TestWireSubstrateOracle checks the wire daemons against the in-memory
// pipeline on seeded worlds. Each row takes a second route, over real
// sockets, to an answer the pipeline already has and compares the two;
// a new wire path is one more row.
func TestWireSubstrateOracle(t *testing.T) {
	rows := []struct {
		name  string
		check func(t *testing.T, w *synth.World)
	}{
		{"rtr", rtrOracle},
		{"collector", collectorOracle},
	}
	for seed := int64(1); seed <= 5; seed++ {
		w := wireWorld(t, seed)
		for _, row := range rows {
			t.Run(fmt.Sprintf("seed%d/%s", seed, row.name), func(t *testing.T) { row.check(t, w) })
		}
	}
}

// rtrOracle serves three consecutive dates' VRPs from one rtr.Server,
// then the last date again with one trust anchor's relying party failed:
// a Fetch on the first, a Serial Query Update per refresh after. Each
// delivered set equals World.At's VRPs for its step, and validation
// through it agrees with the view's index. The dates only add VRPs; the
// failed relying party makes the last delta withdraw some.
func rtrOracle(t *testing.T, w *synth.World) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	end := w.Config.EndYear
	var views []*synth.View
	for _, at := range []time.Time{w.Date(end - 2), w.Date(end - 1), w.Date(end)} {
		v, err := w.At(ctx, at, 0)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	rir, err := synth.RIRForPrefix(views[2].VRPs[0].Prefix)
	if err != nil {
		t.Fatal(err)
	}
	failed := w.Fork("rtr-oracle-rp-fail")
	failed.FailRelyingParty(rir)
	v, err := failed.At(ctx, w.Date(end), 0)
	if err != nil {
		t.Fatal(err)
	}
	views = append(views, v)

	srv := rtr.NewServer(views[0].VRPs)
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resets := obsv.Default().Value("rtr_cache_resets_total")
	res, err := rtr.Fetch(ctx, a.String())
	added, removed := 0, 0
	for i, view := range views {
		if i > 0 {
			prev, cur := vrpSet(res.VRPs), vrpSet(view.VRPs)
			for v := range cur {
				if !prev[v] {
					added++
				}
			}
			for v := range prev {
				if !cur[v] {
					removed++
				}
			}
			srv.SetVRPs(view.VRPs)
			res, err = rtr.Update(ctx, a.String(), res)
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if res.Serial != srv.Serial() {
			t.Errorf("step %d: serial %d, want %d", i, res.Serial, srv.Serial())
		}
		if got, want := vrpSet(res.VRPs), vrpSet(view.VRPs); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: RTR delivered %d distinct VRPs, the view has %d", i, len(got), len(want))
		}
		ix, err := rpki.BuildIndex(res.VRPs)
		if err != nil {
			t.Fatal(err)
		}
		for _, og := range w.OriginationsAt(view.Date) {
			if got, want := ix.Validate(og.Prefix, og.Origin), view.RPKI.Validate(og.Prefix, og.Origin); got != want {
				t.Fatalf("step %d: %s AS%d is %s through RTR, %s in the view", i, og.Prefix, og.Origin, got, want)
			}
		}
	}
	t.Logf("deltas announced %d VRPs and withdrew %d", added, removed)
	if added == 0 || removed == 0 {
		t.Error("the deltas should both announce and withdraw")
	}
	if n := obsv.Default().Value("rtr_cache_resets_total") - resets; n != 0 {
		t.Errorf("%d updates fell back to Cache Reset instead of a delta", n)
	}
}

func vrpSet(vrps []rpki.VRP) map[rpki.VRP]bool {
	set := make(map[rpki.VRP]bool, len(vrps))
	for _, v := range vrps {
		set[v] = true
	}
	return set
}

// collectorOracle replays every vantage point's paths at the world's last
// date over a real BGP session into a collector.Collector and dumps it
// with DumpMRT; the same paths are also written straight to MRT with
// mrt.Writer. Both dumps hold exactly the replayed (prefix, peer ASN,
// path) entries, and ihr.FromMRT derives the same dataset from each.
func collectorOracle(t *testing.T, w *synth.World) {
	at := w.Date(w.Config.EndYear)
	view, err := w.At(context.Background(), at, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A vantage point's RIB holds one path per prefix; where several
	// origins announce a prefix, the first in origination order stands.
	filterFor := ihr.PolicyFilter(w.Graph, w.Policies, view.RPKI, view.IRR)
	ribs := make(map[uint32]map[netx.Prefix][]uint32, len(w.VantagePoints))
	var prefixes []netx.Prefix
	for _, og := range w.OriginationsAt(at) {
		tree := w.Graph.Propagate(og.Prefix, og.Origin, filterFor(og.Prefix, og.Origin))
		for _, vp := range w.VantagePoints {
			path := tree.PathFrom(vp)
			if path == nil {
				continue
			}
			if ribs[vp] == nil {
				ribs[vp] = make(map[netx.Prefix][]uint32)
			}
			if _, ok := ribs[vp][og.Prefix]; !ok {
				ribs[vp][og.Prefix] = path
				prefixes = append(prefixes, og.Prefix)
			}
		}
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].Compare(prefixes[j]) < 0 })
	prefixes = slices.Compact(prefixes)
	var want []string
	for vp, rib := range ribs {
		for p, path := range rib {
			want = append(want, fmt.Sprintf("%s AS%d %v", p, vp, path))
		}
	}
	sort.Strings(want)

	// Route one: the wire. A vantage point announces the prefixes that
	// share a path in one UPDATE, as BGP speakers do. Each session stays
	// up until the collector has absorbed its routes, then closes cleanly
	// (the routes are kept).
	c := collector.New(65000, [4]byte{192, 0, 2, 255})
	caddr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	absorbed := 0
	for _, vp := range w.VantagePoints {
		conn, err := net.Dial("tcp", caddr.String())
		if err != nil {
			t.Fatal(err)
		}
		sess, err := bgp.Establish(conn, bgp.Config{ASN: vp, BGPID: [4]byte{10, 0, byte(vp >> 8), byte(vp)}}, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		updates := make(map[string]*wire.Update)
		for p, path := range ribs[vp] {
			key := fmt.Sprint(path)
			u := updates[key]
			if u == nil || len(u.NLRI)+len(u.MPReach) == 200 { // well inside the 4 KB message cap
				if u != nil {
					if err := sess.SendUpdate(u); err != nil {
						t.Fatal(err)
					}
				}
				u = &wire.Update{Origin: wire.OriginIGP, ASPath: []wire.ASPathSegment{{Type: wire.ASSequence, ASNs: path}},
					NextHop: netip.MustParseAddr("192.0.2.1"), MPNextHop: netip.MustParseAddr("2001:db8::1")}
				updates[key] = u
			}
			if p.Is6() {
				u.MPReach = append(u.MPReach, p)
			} else {
				u.NLRI = append(u.NLRI, p)
			}
		}
		for _, u := range updates {
			if err := sess.SendUpdate(u); err != nil {
				t.Fatal(err)
			}
		}
		absorbed += len(ribs[vp])
		for deadline := time.Now().Add(10 * time.Second); c.RIB().Len() < absorbed; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("AS%d: collector absorbed %d of %d routes", vp, c.RIB().Len(), absorbed)
			}
		}
		sess.Close()
	}
	var wireBuf bytes.Buffer
	if err := c.DumpMRT(&wireBuf, at); err != nil {
		t.Fatal(err)
	}

	// Route two: the same paths written straight to MRT, peers in
	// vantage-point order.
	var directBuf bytes.Buffer
	mw := mrt.NewWriter(&directBuf, at)
	peers := make([]mrt.Peer, len(w.VantagePoints))
	for i, vp := range w.VantagePoints {
		peers[i] = mrt.Peer{BGPID: [4]byte{10, 0, byte(i >> 8), byte(i)}, Addr: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), ASN: vp}
	}
	if err := mw.WritePeerIndexTable([4]byte{192, 0, 2, 1}, "direct", peers); err != nil {
		t.Fatal(err)
	}
	for _, p := range prefixes {
		var entries []mrt.RIBEntry
		for i, vp := range w.VantagePoints {
			if path, ok := ribs[vp][p]; ok {
				entries = append(entries, mrt.RIBEntry{PeerIndex: uint16(i), OriginatedTime: at, Path: path})
			}
		}
		if err := mw.WriteRIB(p, entries); err != nil {
			t.Fatal(err)
		}
	}

	var datasets []*ihr.Dataset
	for _, route := range []struct {
		name string
		buf  *bytes.Buffer
	}{{"collector", &wireBuf}, {"direct", &directBuf}} {
		dump, err := mrt.NewReader(route.buf).ReadAll()
		if err != nil {
			t.Fatalf("%s: %v", route.name, err)
		}
		if len(dump.Records) != len(prefixes) {
			t.Errorf("%s: %d records, want one per prefix (%d)", route.name, len(dump.Records), len(prefixes))
		}
		var got []string
		for _, rec := range dump.Records {
			for _, e := range rec.Entries {
				got = append(got, fmt.Sprintf("%s AS%d %v", rec.Prefix, dump.Peers[e.PeerIndex].ASN, e.Path))
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s: %d (prefix, peer, path) entries, want the %d replayed; they part at %q / %q",
				route.name, len(got), len(want), append(got, "")[i], append(want, "")[i])
		}
		ds, err := ihr.FromMRT(dump, w.Graph, view.RPKI, view.IRR, 0)
		if err != nil {
			t.Fatal(err)
		}
		datasets = append(datasets, ds)
	}
	t.Logf("%d vantage points, %d prefixes, %d routes replayed; %d prefix-origins, %d transits",
		len(w.VantagePoints), len(prefixes), len(want), len(datasets[0].PrefixOrigins), len(datasets[0].Transits))
	if len(datasets[0].Transits) == 0 || !reflect.DeepEqual(datasets[0], datasets[1]) {
		t.Errorf("FromMRT datasets differ: collector %d prefix-origins / %d transits, direct %d / %d",
			len(datasets[0].PrefixOrigins), len(datasets[0].Transits), len(datasets[1].PrefixOrigins), len(datasets[1].Transits))
	}
}
