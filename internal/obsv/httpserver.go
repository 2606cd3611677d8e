package obsv

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// HTTPServer is the one http.Server lifecycle behind every HTTP face
// in this repository (manrsd, manrs-gw, the admin endpoint): bind,
// serve in the background, drain. Embed it; the embedder's own
// Listen/Serve supply the handler. The zero value is ready to use.
type HTTPServer struct {
	mu     sync.Mutex
	srv    *http.Server
	closed bool
}

// Listen binds addr (":0" for an ephemeral port), starts serving h in
// the background, and returns the bound address. what names the server
// in errors and logs ("serve: server"); logf, when set, receives
// listener failures.
func (s *HTTPServer) Listen(addr, what string, h http.Handler, logf func(format string, args ...any)) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := s.Serve(ln, what, h, logf); err != nil {
		ln.Close()
		return nil, err
	}
	return ln.Addr(), nil
}

// Serve starts answering from ln in the background. The listener may
// be wrapped (fault injection in chaos tests).
func (s *HTTPServer) Serve(ln net.Listener, what string, h http.Handler, logf func(format string, args ...any)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%s closed", what)
	}
	if s.srv != nil {
		return fmt.Errorf("%s already serving", what)
	}
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	srv := s.srv
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed && logf != nil {
			logf("%s: listener: %v", what, err)
		}
	}()
	return nil
}

// Shutdown gracefully drains the server: no new connections, in-flight
// requests finish until ctx expires, then remaining connections are
// force-closed. Safe to call without a prior Listen.
func (s *HTTPServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.srv
	s.closed = true
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	if err := srv.Shutdown(ctx); err != nil {
		_ = srv.Close()
		return err
	}
	return nil
}
