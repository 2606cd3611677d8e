package irr

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/rpsl"
)

func whoisRegistry(t *testing.T) *Registry {
	t.Helper()
	db := NewDatabase("RADB")
	db.AddRoute(netx.MustParsePrefix("10.0.0.0/16"), 64500)
	db.AddRoute(netx.MustParsePrefix("192.0.2.0/24"), 64500)
	db.AddRoute(netx.MustParsePrefix("2001:db8::/32"), 64500)
	db.AddRoute(netx.MustParsePrefix("198.51.100.0/24"), 64501)
	mustAddObj(t, db, obj("as-set", "AS-TEST", "members", "AS64500, AS-INNER"))
	mustAddObj(t, db, obj("as-set", "AS-INNER", "members", "AS64501"))
	reg := NewRegistry()
	reg.AddDatabase(db)
	return reg
}

func TestWhoisAnswerOriginQueries(t *testing.T) {
	srv := NewQueryServer(whoisRegistry(t))
	got := srv.Answer("!gAS64500")
	if !strings.Contains(got, "10.0.0.0/16 192.0.2.0/24") {
		t.Errorf("!g = %q", got)
	}
	if !strings.HasPrefix(got, "A") || !strings.Contains(got, "C\n") {
		t.Errorf("!g framing = %q", got)
	}
	if got := srv.Answer("!6AS64500"); !strings.Contains(got, "2001:db8::/32") {
		t.Errorf("!6 = %q", got)
	}
	if got := srv.Answer("!gAS9999"); got != "D\n" {
		t.Errorf("unknown origin = %q", got)
	}
	if got := srv.Answer("!gbogus"); !strings.HasPrefix(got, "F ") {
		t.Errorf("bad ASN = %q", got)
	}
}

func TestWhoisAnswerSetQueries(t *testing.T) {
	srv := NewQueryServer(whoisRegistry(t))
	direct := srv.Answer("!iAS-TEST")
	if !strings.Contains(direct, "AS64500 AS-INNER") {
		t.Errorf("!i direct = %q", direct)
	}
	rec := srv.Answer("!iAS-TEST,1")
	if !strings.Contains(rec, "AS64500 AS64501") {
		t.Errorf("!i recursive = %q", rec)
	}
	if got := srv.Answer("!iAS-NOPE"); got != "D\n" {
		t.Errorf("unknown set = %q", got)
	}
	if got := srv.Answer("!iAS-NOPE,1"); got != "D\n" {
		t.Errorf("unknown recursive set = %q", got)
	}
}

func TestWhoisAnswerRouteLookup(t *testing.T) {
	srv := NewQueryServer(whoisRegistry(t))
	got := srv.Answer("-x 192.0.2.0/24")
	if !strings.Contains(got, "route: 192.0.2.0/24") || !strings.Contains(got, "origin: AS64500") {
		t.Errorf("-x = %q", got)
	}
	if got := srv.Answer("-x 203.0.113.0/24"); got != "D\n" {
		t.Errorf("-x miss = %q", got)
	}
	if got := srv.Answer("-x banana"); !strings.HasPrefix(got, "F ") {
		t.Errorf("-x bad prefix = %q", got)
	}
	if got := srv.Answer("?huh"); !strings.HasPrefix(got, "F ") {
		t.Errorf("unknown query = %q", got)
	}
}

// TestWhoisOverTCP drives one session through an origin, an as-set and
// an unrecognized query, then !q. The open session shows in
// irr_sessions_active and leaves it on close; irr_queries_total counts
// each query under its kind, the unrecognized one as "invalid", and
// irr_query_seconds times all three.
func TestWhoisOverTCP(t *testing.T) {
	active, answered := mWhoisSessionsActive.Value(), mWhoisQueryLatency.Count()
	kinds := map[string]int64{}
	for kind, c := range mWhoisQueries {
		kinds[kind] = c.Value()
	}
	srv := NewQueryServer(whoisRegistry(t))
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
	br := bufio.NewReader(conn)

	fmt.Fprintf(conn, "!gAS64501\n")
	hdr, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(hdr, "A") {
		t.Fatalf("header = %q", hdr)
	}
	data, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(data) != "198.51.100.0/24" {
		t.Errorf("data = %q", data)
	}
	tail, err := br.ReadString('\n')
	if err != nil || tail != "C\n" {
		t.Errorf("tail = %q err %v", tail, err)
	}

	// Multiple queries on one connection; then quit.
	fmt.Fprintf(conn, "!iAS-INNER,1\n")
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "bogus\n")
	if line, err := br.ReadString('\n'); err != nil || line != "F unrecognized query\n" {
		t.Fatalf("unrecognized query answered %q, err %v", line, err)
	}
	if got := mWhoisSessionsActive.Value() - active; got != 1 {
		t.Errorf("sessions active moved by %g with one session open, want 1", got)
	}
	for kind, want := range map[string]int64{"origin": 1, "as-set": 1, "route": 0, "invalid": 1} {
		if got := mWhoisQueries[kind].Value() - kinds[kind]; got != want {
			t.Errorf("queries kind=%s moved by %d, want %d", kind, got, want)
		}
	}
	if got := mWhoisQueryLatency.Count() - answered; got != 3 {
		t.Errorf("query latency observed %d answers, want 3", got)
	}
	fmt.Fprintf(conn, "!q\n")
	if _, err := br.ReadByte(); err == nil {
		t.Error("connection should close after !q")
	}
	for deadline := time.Now().Add(5 * time.Second); mWhoisSessionsActive.Value() != active; {
		if time.Now().After(deadline) {
			t.Fatalf("sessions active = %g after !q, want %g", mWhoisSessionsActive.Value(), active)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestWhoisIndexRefreshesOnNewRoutes(t *testing.T) {
	reg := whoisRegistry(t)
	srv := NewQueryServer(reg)
	if got := srv.Answer("!gAS64502"); got != "D\n" {
		t.Fatalf("before add = %q", got)
	}
	db2 := NewDatabase("RIPE")
	db2.AddRoute(netx.MustParsePrefix("203.0.113.0/24"), 64502)
	reg.AddDatabase(db2)
	if got := srv.Answer("!gAS64502"); !strings.Contains(got, "203.0.113.0/24") {
		t.Errorf("after add = %q", got)
	}
}

func TestWhoisDeduplicatesMirroredRoutes(t *testing.T) {
	auth := NewDatabase("RIPE")
	auth.AddRoute(netx.MustParsePrefix("10.0.0.0/16"), 64500)
	mirror := NewDatabase("RADB")
	mirror.AddRoute(netx.MustParsePrefix("10.0.0.0/16"), 64500)
	reg := NewRegistry()
	reg.AddDatabase(auth)
	reg.AddDatabase(mirror)
	srv := NewQueryServer(reg)
	got := srv.Answer("!g" + rpsl.FormatASN(64500))
	if strings.Count(got, "10.0.0.0/16") != 1 {
		t.Errorf("mirrored route duplicated: %q", got)
	}
}

// A whois client that stays connected, idle, after a query must not
// hold a drain: Shutdown closes its session and returns at once instead
// of waiting out the idle timeout.
func TestShutdownWithIdleClient(t *testing.T) {
	srv := NewQueryServer(whoisRegistry(t))
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
	fmt.Fprintf(conn, "!gAS64501\n")
	if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with an idle client: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Shutdown with an idle client took %s, want < 1s", d)
	}
}
