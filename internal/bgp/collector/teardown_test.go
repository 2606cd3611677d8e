package collector

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"manrsmeter/internal/bgp"
	"manrsmeter/internal/bgp/mrt"
	"manrsmeter/internal/bgp/wire"
	"manrsmeter/internal/netx"
)

// A peer that completes the handshake and then falls silent must be torn
// down by the hold timer and its routes withdrawn — a dead feed may not
// freeze stale routes into future snapshots. The session counts in
// collector_peer_sessions_total, the teardown in
// collector_hold_expired_total and its one route in
// collector_routes_withdrawn_total.
func TestCollectorWithdrawsSilentPeer(t *testing.T) {
	sessions, expired, withdrawn := mPeerSessions.Value(), mHoldExpired.Value(), mRoutesWithdrawn.Value()
	c := New(65000, [4]byte{10, 0, 0, 3}, WithHoldTime(time.Second))
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sess, err := bgp.Establish(conn, bgp.Config{ASN: 64510, BGPID: [4]byte{8, 8, 8, 8}, HoldTime: time.Second}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	err = sess.SendUpdate(&wire.Update{
		Origin:  wire.OriginIGP,
		ASPath:  []wire.ASPathSegment{{Type: wire.ASSequence, ASNs: []uint32{64510}}},
		NextHop: netip.MustParseAddr("192.0.2.1"),
		NLRI:    []netx.Prefix{pfx("203.0.113.0/24")},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.RIB().Len() == 1 })

	// No keepalives from here on: the collector's hold timer (≈1s) fires
	// and withdraws the peer's routes.
	waitFor(t, func() bool { return c.RIB().Len() == 0 })
	waitFor(t, func() bool { return mRoutesWithdrawn.Value()-withdrawn == 1 })
	if s, e := mPeerSessions.Value()-sessions, mHoldExpired.Value()-expired; s != 1 || e != 1 {
		t.Errorf("peer sessions %d, hold expiries %d; want 1 each", s, e)
	}

	// The peer stays in the peer table so earlier dumps remain
	// attributable, but contributes no records.
	if c.NumPeers() != 1 {
		t.Errorf("NumPeers = %d, want 1 (peer table is archival)", c.NumPeers())
	}
	var buf bytes.Buffer
	if err := c.DumpMRT(&buf, time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	dump, err := mrt.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Records) != 0 {
		t.Errorf("dump still carries %d records from the dead peer", len(dump.Records))
	}
}

// A peer that disconnects cleanly keeps its routes in the RIB (archival
// last-known-RIB), in contrast to hold-timer expiry above.
func TestCollectorKeepsRoutesOnCleanDisconnect(t *testing.T) {
	c := New(65000, [4]byte{10, 0, 0, 4})
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	announceAll(t, addr.String(), 64511, map[string][]uint32{
		"198.51.100.0/24": {64511},
	}) // announceAll closes the session cleanly on return
	waitFor(t, func() bool { return c.RIB().Len() == 1 })

	// Give the collector time to notice the disconnect; the route must stay.
	time.Sleep(200 * time.Millisecond)
	if c.RIB().Len() != 1 {
		t.Errorf("RIB len = %d after clean disconnect, want 1", c.RIB().Len())
	}
}

// Close during an in-flight handshake must force the connection shut and
// reap the peer goroutine instead of waiting out the handshake timeout.
func TestCollectorCloseDuringHandshake(t *testing.T) {
	before := runtime.NumGoroutine()

	c := New(65000, [4]byte{10, 0, 0, 5})
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing: the collector's handler is blocked reading our OPEN.
	deadline := time.Now().Add(5 * time.Second)
	for c.srv.ActiveConns() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	done := make(chan struct{})
	go func() {
		c.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on the in-flight handshake")
	}

	// All collector goroutines must be reaped.
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after Close", before, runtime.NumGoroutine())
}

// The peer table records the real remote address of each peering, not a
// hardcoded loopback placeholder.
func TestCollectorRecordsPeerAddress(t *testing.T) {
	c := New(65000, [4]byte{10, 0, 0, 6})
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sess, err := bgp.Establish(conn, bgp.Config{ASN: 64512, BGPID: [4]byte{7, 7, 7, 7}}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	waitFor(t, func() bool { return c.NumPeers() == 1 })

	var buf bytes.Buffer
	if err := c.DumpMRT(&buf, time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	dump, err := mrt.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Peers) != 1 {
		t.Fatalf("peers = %+v", dump.Peers)
	}
	want := conn.LocalAddr().(*net.TCPAddr).IP.String()
	if got := dump.Peers[0].Addr.String(); got != want {
		t.Errorf("recorded peer addr = %s, want %s", got, want)
	}
}

// Shutdown ends a live peering at once with a Cease instead of waiting
// out its deadline for a session that never ends on its own, and the
// peer's routes stay in the RIB.
func TestCollectorShutdownCeasesLivePeers(t *testing.T) {
	c := New(65000, [4]byte{10, 0, 0, 6})
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sess, err := bgp.Establish(conn, bgp.Config{ASN: 64513, BGPID: [4]byte{6, 6, 6, 6}}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	err = sess.SendUpdate(&wire.Update{
		Origin:  wire.OriginIGP,
		ASPath:  []wire.ASPathSegment{{Type: wire.ASSequence, ASNs: []uint32{64513}}},
		NextHop: netip.MustParseAddr("192.0.2.1"),
		NLRI:    []netx.Prefix{pfx("203.0.113.0/24")},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.RIB().Len() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with a live peer = %v after %v, want nil", err, time.Since(start))
	}
	var n *wire.Notification
	if _, err := sess.Recv(); !errors.As(err, &n) || n.Code != 6 {
		t.Errorf("peer saw %v at shutdown, want a Cease NOTIFICATION", err)
	}
	if c.RIB().Len() != 1 {
		t.Errorf("RIB len = %d after shutdown, want the peer's 1 route kept", c.RIB().Len())
	}
}
