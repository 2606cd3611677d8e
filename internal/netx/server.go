// server.go is the shared connection-serving harness used by every
// long-running daemon in the repository (BGP collector, RTR cache, IRR
// whois server). It centralizes the operational concerns a
// months-long measurement service needs and that ad-hoc accept loops get
// wrong: per-connection idle deadlines, a cap on concurrent connections,
// panic isolation so one malformed peer cannot take the daemon down,
// retry-with-backoff on transient accept failures, and a context-based
// graceful drain on shutdown.

package netx

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"manrsmeter/internal/obsv"
)

// Harness metrics, aggregated across every Server in the process: they
// make harness-level anomalies (panic storms, accept churn, cap
// rejections) scrapeable, and are the one count of each.
var (
	mServerAcceptRetries = obsv.NewCounter("netx_server_accept_retries_total",
		"transient accept failures retried with backoff")
	mServerPanics = obsv.NewCounter("netx_server_handler_panics_total",
		"handler panics absorbed by the harness")
	mServerRejected = obsv.NewCounter("netx_server_conns_rejected_total",
		"connections refused by the MaxConns cap")
	mServerConns = obsv.NewCounter("netx_server_conns_total",
		"connections accepted and handed to a handler")
)

// Handler serves one accepted connection. The context is canceled when
// the server begins draining; the connection is closed by the harness
// when the handler returns (and force-closed on shutdown), so handlers
// blocked in Read are unblocked by Close.
type Handler func(ctx context.Context, conn net.Conn)

// Server accepts connections and dispatches them to Handler with the
// hardening described above. Configure the exported fields before the
// first Listen/Serve call; the zero value of each field disables that
// protection.
type Server struct {
	// Handler is required.
	Handler Handler
	// ReadTimeout/WriteTimeout are idle deadlines re-armed before every
	// Read/Write on the connection handed to Handler. Handlers that
	// manage their own deadlines (e.g. a BGP hold timer) should leave
	// these zero.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// MaxConns caps concurrently served connections; beyond it, new
	// accepts are closed immediately. Zero means unlimited.
	MaxConns int

	mu     sync.Mutex
	lns    []net.Listener
	conns  map[net.Conn]struct{}
	ctx    context.Context
	cancel context.CancelFunc
	closed bool
	wg     sync.WaitGroup
}

// initLocked lazily creates the server's run state; callers hold s.mu.
func (s *Server) initLocked() {
	if s.ctx == nil {
		s.ctx, s.cancel = context.WithCancel(context.Background())
		s.conns = make(map[net.Conn]struct{})
	}
}

// Listen binds addr and starts serving; it returns the bound address so
// callers can use ":0" ephemeral ports.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := s.Serve(ln); err != nil {
		ln.Close()
		return nil, err
	}
	return ln.Addr(), nil
}

// Serve starts accepting from ln in the background. Multiple listeners
// may be served by one Server; Close stops them all.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("netx: server closed")
	}
	s.initLocked()
	s.lns = append(s.lns, ln)
	s.wg.Add(1)
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closing() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient failure (EMFILE, injected fault): back off and
			// keep the listener alive instead of abandoning the port.
			mServerAcceptRetries.Inc()
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff < time.Second {
				backoff *= 2
			}
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-s.ctx.Done():
				t.Stop()
				return
			}
			continue
		}
		backoff = 0
		if !s.track(conn) {
			mServerRejected.Inc()
			conn.Close()
			continue
		}
		mServerConns.Inc()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.MaxConns > 0 && len(s.conns) >= s.MaxConns {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		if recover() != nil {
			mServerPanics.Inc()
		}
		s.untrack(conn)
		conn.Close()
	}()
	c := conn
	if s.ReadTimeout > 0 || s.WriteTimeout > 0 {
		c = &deadlineConn{Conn: conn, rt: s.ReadTimeout, wt: s.WriteTimeout}
	}
	s.Handler(s.ctx, c)
}

func (s *Server) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// ActiveConns returns the number of connections currently being served.
func (s *Server) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Shutdown drains the server: it stops accepting, cancels the handler
// context, and waits for handlers to finish on their own until ctx
// expires, at which point remaining connections are force-closed. It
// always waits for every handler to return.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginClose()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.closeConns()
		<-done
		return ctx.Err()
	}
}

// Close shuts the server down immediately: listeners and all active
// connections are closed and every handler is waited for.
func (s *Server) Close() error {
	s.beginClose()
	s.closeConns()
	s.wg.Wait()
	return nil
}

// beginClose stops accepting and cancels the handler context (at most
// once).
func (s *Server) beginClose() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.initLocked()
	lns := append([]net.Listener(nil), s.lns...)
	cancel := s.cancel
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	cancel()
}

func (s *Server) closeConns() {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// deadlineConn re-arms idle deadlines before every I/O operation, so a
// peer that stops reading or writing mid-stream is disconnected instead
// of pinning a handler goroutine forever.
type deadlineConn struct {
	net.Conn
	rt, wt time.Duration
}

func (c *deadlineConn) Read(b []byte) (int, error) {
	if c.rt > 0 {
		if err := c.Conn.SetReadDeadline(time.Now().Add(c.rt)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(b)
}

func (c *deadlineConn) Write(b []byte) (int, error) {
	if c.wt > 0 {
		if err := c.Conn.SetWriteDeadline(time.Now().Add(c.wt)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Write(b)
}
