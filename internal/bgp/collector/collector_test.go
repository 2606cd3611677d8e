package collector

import (
	"bytes"
	"net"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"manrsmeter/internal/bgp"
	"manrsmeter/internal/bgp/mrt"
	"manrsmeter/internal/bgp/wire"
	"manrsmeter/internal/netx"
)

func pfx(s string) netx.Prefix { return netx.MustParsePrefix(s) }

// announceAll dials the collector as asn and announces the given routes.
func announceAll(t *testing.T, addr string, asn uint32, routes map[string][]uint32) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := bgp.Establish(conn, bgp.Config{ASN: asn, BGPID: [4]byte{byte(asn), 0, 0, 1}}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for p, path := range routes {
		err := sess.SendUpdate(&wire.Update{
			Origin:  wire.OriginIGP,
			ASPath:  []wire.ASPathSegment{{Type: wire.ASSequence, ASNs: path}},
			NextHop: netip.MustParseAddr("192.0.2.1"),
			NLRI:    []netx.Prefix{pfx(p)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Leave the session up long enough for the collector to drain.
	time.Sleep(100 * time.Millisecond)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}

func TestCollectorEndToEnd(t *testing.T) {
	c := New(65000, [4]byte{10, 0, 0, 1})
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	announceAll(t, addr.String(), 64500, map[string][]uint32{
		"10.0.0.0/8":      {64500},
		"198.51.100.0/24": {64500, 64999},
	})
	announceAll(t, addr.String(), 64501, map[string][]uint32{
		"10.0.0.0/8": {64501, 64500},
	})
	waitFor(t, func() bool { return c.RIB().Len() == 3 && c.NumPeers() == 2 })

	// Dump and reparse the MRT snapshot.
	var buf bytes.Buffer
	ts := time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)
	if err := c.DumpMRT(&buf, ts); err != nil {
		t.Fatal(err)
	}
	dump, err := mrt.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Peers) != 2 || dump.Peers[0].ASN != 64500 || dump.Peers[1].ASN != 64501 {
		t.Fatalf("peers = %+v", dump.Peers)
	}
	if len(dump.Records) != 2 {
		t.Fatalf("records = %d", len(dump.Records))
	}
	// 10.0.0.0/8 carries two entries (one per peer), sorted by peer.
	var tenSlash8 *mrt.RIBRecord
	for i := range dump.Records {
		if dump.Records[i].Prefix == pfx("10.0.0.0/8") {
			tenSlash8 = &dump.Records[i]
		}
	}
	if tenSlash8 == nil || len(tenSlash8.Entries) != 2 {
		t.Fatalf("10/8 record = %+v", tenSlash8)
	}
	if !reflect.DeepEqual(tenSlash8.Entries[0].Path, []uint32{64500}) ||
		!reflect.DeepEqual(tenSlash8.Entries[1].Path, []uint32{64501, 64500}) {
		t.Errorf("paths = %+v", tenSlash8.Entries)
	}
}

// TestCollectorWithdraw: an announced route enters the RIB and an
// UPDATE withdrawal takes it out; collector_routes_received_total and
// collector_routes_withdrawn_total count one prefix each.
func TestCollectorWithdraw(t *testing.T) {
	received, withdrawn := mRoutesReceived.Value(), mRoutesWithdrawn.Value()
	c := New(65000, [4]byte{10, 0, 0, 2})
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := bgp.Establish(conn, bgp.Config{ASN: 64502, BGPID: [4]byte{9, 9, 9, 9}}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	err = sess.SendUpdate(&wire.Update{
		Origin:  wire.OriginIGP,
		ASPath:  []wire.ASPathSegment{{Type: wire.ASSequence, ASNs: []uint32{64502}}},
		NextHop: netip.MustParseAddr("192.0.2.1"),
		NLRI:    []netx.Prefix{pfx("203.0.113.0/24")},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.RIB().Len() == 1 })
	if err := sess.SendUpdate(&wire.Update{Withdrawn: []netx.Prefix{pfx("203.0.113.0/24")}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.RIB().Len() == 0 })
	if r, w := mRoutesReceived.Value()-received, mRoutesWithdrawn.Value()-withdrawn; r != 1 || w != 1 {
		t.Errorf("routes received %d, withdrawn %d; want 1 each", r, w)
	}
}

// TestCollectorEmptyDump: a collector with no registered peer dumps an
// empty snapshot, even when its RIB holds a route: a route whose peer
// is not in the dump's peer table (it registered mid-dump) is skipped
// and counted in collector_mrt_routes_skipped_total.
func TestCollectorEmptyDump(t *testing.T) {
	c := New(65000, [4]byte{1, 1, 1, 1})
	c.rib.Apply(64999, &wire.Update{
		Origin:  wire.OriginIGP,
		ASPath:  []wire.ASPathSegment{{Type: wire.ASSequence, ASNs: []uint32{64999}}},
		NextHop: netip.MustParseAddr("192.0.2.1"),
		NLRI:    []netx.Prefix{pfx("203.0.113.0/24")},
	})
	skipped := mMRTSkipped.Value()
	var buf bytes.Buffer
	if err := c.DumpMRT(&buf, time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	dump, err := mrt.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Peers) != 0 || len(dump.Records) != 0 {
		t.Errorf("empty dump = %+v", dump)
	}
	if got := mMRTSkipped.Value() - skipped; got != 1 {
		t.Errorf("skipped routes counted %d, want 1", got)
	}
}
