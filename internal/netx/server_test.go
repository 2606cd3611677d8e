package netx

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

func startServer(t *testing.T, s *Server) net.Addr {
	t.Helper()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr
}

func TestServerServesConnections(t *testing.T) {
	var served atomic.Int64
	s := &Server{Handler: func(ctx context.Context, conn net.Conn) {
		served.Add(1)
		io.Copy(conn, conn) // echo
	}}
	addr := startServer(t, s)

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" || served.Load() != 1 {
		t.Errorf("echo = %q, served = %d", buf, served.Load())
	}
}

// TestServerPanicRecovery: a panicking handler costs only its own
// connection, and netx_server_handler_panics_total counts it once.
func TestServerPanicRecovery(t *testing.T) {
	before := mServerPanics.Value()
	s := &Server{Handler: func(ctx context.Context, conn net.Conn) {
		buf := make([]byte, 1)
		conn.Read(buf)
		panic("malformed input")
	}}
	addr := startServer(t, s)

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("x"))
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for mServerPanics.Value() == before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := mServerPanics.Value() - before; got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}

	// The server is still alive after the panic.
	conn2, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write([]byte("y")); err != nil {
		t.Fatal(err)
	}
}

// TestServerMaxConns: a connection beyond MaxConns is closed unserved,
// and netx_server_conns_rejected_total counts it.
func TestServerMaxConns(t *testing.T) {
	before := mServerRejected.Value()
	release := make(chan struct{})
	s := &Server{
		MaxConns: 2,
		Handler: func(ctx context.Context, conn net.Conn) {
			conn.Write([]byte("A"))
			<-release
		},
	}
	addr := startServer(t, s)
	defer close(release)

	accepted := func() net.Conn {
		c, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	c1, c2 := accepted(), accepted()
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c1, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c2, buf); err != nil {
		t.Fatal(err)
	}

	// Third connection is refused: it closes without the greeting.
	c3 := accepted()
	c3.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c3, buf); err == nil {
		t.Fatal("third conn served beyond MaxConns")
	}
	if mServerRejected.Value() == before {
		t.Error("rejection not counted")
	}
}

func TestServerIdleTimeoutDisconnects(t *testing.T) {
	done := make(chan error, 1)
	s := &Server{
		ReadTimeout: 50 * time.Millisecond,
		Handler: func(ctx context.Context, conn net.Conn) {
			_, err := conn.Read(make([]byte, 1))
			done <- err
		},
	}
	addr := startServer(t, s)

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing: the handler's read must fail on the idle deadline.
	select {
	case err := <-done:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("idle read error = %v, want timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle connection never timed out")
	}
}

func TestServerCloseUnblocksHandlers(t *testing.T) {
	entered := make(chan struct{})
	s := &Server{Handler: func(ctx context.Context, conn net.Conn) {
		close(entered)
		conn.Read(make([]byte, 1)) // blocks until force-closed
	}}
	addr := startServer(t, s)

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-entered

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the handler")
	}
}

func TestServerShutdownGracefulThenForced(t *testing.T) {
	s := &Server{Handler: func(ctx context.Context, conn net.Conn) {
		<-ctx.Done() // exits as soon as drain starts
	}}
	addr := startServer(t, s)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for s.ActiveConns() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown = %v", err)
	}

	// Forced path: handler ignores ctx.
	s2 := &Server{Handler: func(ctx context.Context, conn net.Conn) {
		conn.Read(make([]byte, 1))
	}}
	addr2 := startServer(t, s2)
	conn2, err := net.Dial("tcp", addr2.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	for s2.ActiveConns() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if err := s2.Shutdown(ctx2); err == nil {
		t.Fatal("forced shutdown should report ctx error")
	}
}

// TestServerSurvivesAcceptFailures: transient accept failures are
// retried with backoff, never fatal to the listener, and each retry is
// counted in netx_server_accept_retries_total.
func TestServerSurvivesAcceptFailures(t *testing.T) {
	before := mServerAcceptRetries.Value()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewFaultInjector(FaultConfig{Seed: 2, AcceptFailEvery: 2})
	var served atomic.Int64
	s := &Server{Handler: func(ctx context.Context, conn net.Conn) {
		served.Add(1)
		conn.Write([]byte("A"))
	}}
	if err := s.Serve(inj.Listener(ln)); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Every dial eventually lands despite every other accept failing,
	// because the harness retries instead of abandoning the listener.
	for i := 0; i < 6; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1)
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatalf("dial %d never served: %v", i, err)
		}
		conn.Close()
	}
	if served.Load() != 6 {
		t.Errorf("served = %d, want 6", served.Load())
	}
	// The loop may be mid-retry: a failure is injected before it is
	// counted, so read the counter first.
	retries := mServerAcceptRetries.Value() - before
	injected := int64(inj.Counts()[FaultAcceptFail])
	if injected == 0 {
		t.Error("no accept failures injected")
	}
	if retries < 1 || retries > injected {
		t.Errorf("accept retries counted %d, want 1..%d (the injected failures)", retries, injected)
	}
}
