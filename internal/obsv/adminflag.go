package obsv

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"sync"
)

// AdminEndpoint is the shared -admin wiring every command uses: one
// call registers the flag, one call after flag.Parse serves the
// endpoint (a no-op when the flag was left empty), and one deferred
// call drains it at shutdown. It replaces the copy-pasted flag +
// Admin + Listen + Shutdown blocks the daemons grew independently.
//
//	adminEP := obsv.AdminFlag(nil)
//	flag.Parse()
//	if addr, err := adminEP.Start(healthz); err != nil {
//		log.Fatalf("admin endpoint: %v", err)
//	} else if addr != nil {
//		log.Printf("admin endpoint on http://%s", addr)
//	}
//	defer adminEP.Shutdown(ctx)
type AdminEndpoint struct {
	addr *string

	mu  sync.Mutex
	adm *Admin
}

// AdminFlag registers the standard -admin flag on fs (flag.CommandLine
// when nil) and returns the endpoint handle. Call before flag.Parse.
func AdminFlag(fs *flag.FlagSet) *AdminEndpoint {
	if fs == nil {
		fs = flag.CommandLine
	}
	e := &AdminEndpoint{}
	e.addr = fs.String("admin", "",
		"serve the observability endpoint (/metrics, /healthz, /debug/pprof/) on this address; bind it to loopback, it carries no authentication")
	return e
}

// Enabled reports whether -admin was set to a non-empty address.
func (e *AdminEndpoint) Enabled() bool { return e.addr != nil && *e.addr != "" }

// Start serves the endpoint over the Default registry when -admin was
// set, with healthz (nil means always healthy) answering /healthz.
// It returns the bound address, or nil when the flag was left empty.
func (e *AdminEndpoint) Start(healthz func() Health) (net.Addr, error) {
	adminLog := NewLogger(os.Stderr, LevelInfo).With("admin")
	return e.StartAdmin(&Admin{
		Healthz: healthz,
		Logf: func(format string, args ...any) {
			adminLog.Error(fmt.Sprintf(format, args...))
		},
	})
}

// StartAdmin is Start with a caller-configured Admin (custom Registry,
// Tracer, or Logf). The Admin's listener lifecycle is still owned by
// the endpoint: Shutdown drains it.
func (e *AdminEndpoint) StartAdmin(a *Admin) (net.Addr, error) {
	if !e.Enabled() {
		return nil, nil
	}
	bound, err := a.Listen(*e.addr)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.adm = a
	e.mu.Unlock()
	return bound, nil
}

// Addr returns the bound address (nil before a successful Start).
func (e *AdminEndpoint) Addr() net.Addr {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.adm == nil {
		return nil
	}
	return e.adm.Addr()
}

// Shutdown drains the endpoint; a no-op when it never started.
func (e *AdminEndpoint) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	adm := e.adm
	e.mu.Unlock()
	if adm == nil {
		return nil
	}
	return adm.Shutdown(ctx)
}
