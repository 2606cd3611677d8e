package rtr

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpki"
)

func pfx(s string) netx.Prefix { return netx.MustParsePrefix(s) }

// testCtx bounds a test's RTR exchanges, so a hung cache fails the test
// instead of stalling the suite.
func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func sampleVRPs() []rpki.VRP {
	return []rpki.VRP{
		{Prefix: pfx("10.0.0.0/16"), ASN: 64500, MaxLength: 24},
		{Prefix: pfx("192.0.2.0/24"), ASN: 64501, MaxLength: 24},
		{Prefix: pfx("2001:db8::/32"), ASN: 64500, MaxLength: 48},
	}
}

func TestPDURoundTrip(t *testing.T) {
	pdus := []*PDU{
		{Version: Version, Type: TypeResetQuery},
		{Version: Version, Type: TypeCacheResponse, Session: 7},
		{Version: Version, Type: TypeCacheReset},
		{Version: Version, Type: TypeSerialQuery, Session: 7, Serial: 42},
		{Version: Version, Type: TypeSerialNotify, Session: 7, Serial: 43},
		{Version: Version, Type: TypeEndOfData, Session: 7, Serial: 44},
		VRPToPDU(sampleVRPs()[0]),
		VRPToPDU(sampleVRPs()[2]), // IPv6
		{Version: Version, Type: TypeErrorReport, Session: ErrUnsupportedPDU, Text: "nope"},
	}
	for i, p := range pdus {
		var buf bytes.Buffer
		if err := p.Write(&buf); err != nil {
			t.Fatalf("pdu %d write: %v", i, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("pdu %d read: %v", i, err)
		}
		if got.Type != p.Type || got.Session != p.Session || got.Serial != p.Serial ||
			got.Prefix != p.Prefix || got.MaxLength != p.MaxLength || got.ASN != p.ASN ||
			got.Text != p.Text {
			t.Errorf("pdu %d round trip: sent %+v got %+v", i, p, got)
		}
	}
}

func TestPDUWriteErrors(t *testing.T) {
	var buf bytes.Buffer
	bad := &PDU{Version: Version, Type: TypeIPv4Prefix, Prefix: pfx("2001:db8::/32")}
	if err := bad.Write(&buf); err == nil {
		t.Error("v6 prefix in v4 PDU should fail")
	}
	bad = &PDU{Version: Version, Type: TypeIPv6Prefix, Prefix: pfx("10.0.0.0/8")}
	if err := bad.Write(&buf); err == nil {
		t.Error("v4 prefix in v6 PDU should fail")
	}
	bad = &PDU{Version: Version, Type: 99}
	if err := bad.Write(&buf); err == nil {
		t.Error("unknown type should fail to encode")
	}
}

func TestReadErrors(t *testing.T) {
	// Bad length field.
	hdr := []byte{Version, TypeResetQuery, 0, 0, 0, 0, 0, 4}
	if _, err := Read(bytes.NewReader(hdr)); err == nil {
		t.Error("undersized length should fail")
	}
	// Prefix PDU with max length < prefix length.
	var buf bytes.Buffer
	good := VRPToPDU(sampleVRPs()[0])
	if err := good.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[10] = 4 // max length byte < the /16 prefix length
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("max length < prefix length should fail")
	}
	// Unsupported type on the wire.
	bad := []byte{Version, 42, 0, 0, 0, 0, 0, 8}
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("unsupported type should fail")
	}
}

func TestVRPPDUConversion(t *testing.T) {
	for _, v := range sampleVRPs() {
		p := VRPToPDU(v)
		got, err := PDUToVRP(p)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Errorf("conversion: %+v != %+v", got, v)
		}
	}
	if _, err := PDUToVRP(&PDU{Type: TypeResetQuery}); err == nil {
		t.Error("non-prefix PDU should not convert")
	}
}

func TestServerFetchEndToEnd(t *testing.T) {
	ctx := testCtx(t)
	srv := NewServer(sampleVRPs())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	res, err := Fetch(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.VRPs) != 3 {
		t.Fatalf("fetched %d VRPs", len(res.VRPs))
	}
	if res.Serial != 1 {
		t.Errorf("serial = %d", res.Serial)
	}
	// The fetched snapshot drives RFC 6811 validation.
	ix := rov.NewIndex()
	for _, v := range res.VRPs {
		if err := ix.Add(v.Authorization()); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.Validate(pfx("10.0.5.0/24"), 64500); got != rov.Valid {
		t.Errorf("validation through RTR snapshot = %v", got)
	}

	// Refresh: serial bumps and the new snapshot is served.
	srv.SetVRPs(sampleVRPs()[:1])
	res, err = Fetch(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.VRPs) != 1 || res.Serial != 2 {
		t.Errorf("after refresh: %d VRPs serial %d", len(res.VRPs), res.Serial)
	}
}

// TestServerSerialQueryGetsCacheReset: a Serial Query for an unknown
// serial is answered with Cache Reset, and a Reset Query on the same
// connection then fetches the snapshot. rtr_queries_total counts each
// query under its type and rtr_cache_resets_total the reset; the open
// session shows in rtr_sessions_active and leaves it on close.
func TestServerSerialQueryGetsCacheReset(t *testing.T) {
	active := mSessionsActive.Value()
	serials, resetQueries, resets := mSerialQueries.Value(), mResetQueries.Value(), mCacheResets.Value()
	srv := NewServer(sampleVRPs())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := &PDU{Version: Version, Type: TypeSerialQuery, Serial: 0}
	if err := q.Write(conn); err != nil {
		t.Fatal(err)
	}
	got, err := Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeCacheReset {
		t.Fatalf("serial query answer = type %d, want Cache Reset", got.Type)
	}
	// After the reset, a Reset Query on the same connection works.
	res, err := exchange(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.VRPs) != 3 {
		t.Errorf("post-reset fetch = %d VRPs", len(res.VRPs))
	}
	if got := mSessionsActive.Value() - active; got != 1 {
		t.Errorf("sessions active moved by %g with one session open, want 1", got)
	}
	if s, r, c := mSerialQueries.Value()-serials, mResetQueries.Value()-resetQueries, mCacheResets.Value()-resets; s != 1 || r != 1 || c != 1 {
		t.Errorf("queries serial=%d reset=%d, cache resets %d; want 1 each", s, r, c)
	}
	conn.Close()
	for deadline := time.Now().Add(5 * time.Second); mSessionsActive.Value() != active; {
		if time.Now().After(deadline) {
			t.Fatalf("sessions active = %g after the session closed, want %g", mSessionsActive.Value(), active)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServerRejectsUnsupportedPDU(t *testing.T) {
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A Cache Response is a cache→router PDU; a cache must reject it.
	bad := &PDU{Version: Version, Type: TypeCacheResponse}
	if err := bad.Write(conn); err != nil {
		t.Fatal(err)
	}
	got, err := Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeErrorReport || got.Session != ErrUnsupportedPDU {
		t.Fatalf("got %+v, want unsupported-PDU error report", got)
	}
	if !strings.Contains(got.Text, "unsupported") {
		t.Errorf("error text = %q", got.Text)
	}
}

func TestEmptySnapshot(t *testing.T) {
	ctx := testCtx(t)
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := Fetch(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.VRPs) != 0 {
		t.Errorf("empty cache served %d VRPs", len(res.VRPs))
	}
}

// Property: Read never panics on random bytes with a plausible header.
func TestReadNeverPanics(t *testing.T) {
	f := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(64)
		raw := make([]byte, headerLen+n)
		r.Read(raw)
		raw[0] = Version
		raw[1] = byte(r.Intn(12))
		raw[4], raw[5] = 0, 0
		raw[6] = byte((headerLen + n) >> 8)
		raw[7] = byte(headerLen + n)
		_, _ = Read(bytes.NewReader(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// A router that fetched a snapshot and stays connected, idle, must not
// hold a drain: Shutdown closes its session and returns at once instead
// of waiting out the idle timeout.
func TestShutdownWithIdleRouter(t *testing.T) {
	srv := NewServer(sampleVRPs())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := exchange(conn, nil); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with an idle router: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Shutdown with an idle router took %s, want < 1s", d)
	}
}
