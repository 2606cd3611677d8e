package obsv

import (
	"context"
	"flag"
	"net"
	"sync"
)

// AdminEndpoint is the -admin wiring of the commands that run long
// enough to be scraped (the daemons and manrs-report): one call
// registers the flag, one call after flag.Parse serves the endpoint (a
// no-op when the flag was left empty), and one deferred call drains it
// at shutdown.
//
//	adminEP := obsv.AdminFlag()
//	flag.Parse()
//	if addr, err := adminEP.Start(&obsv.Admin{Healthz: healthz}); err != nil {
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

// AdminFlag registers the standard -admin flag on flag.CommandLine and
// returns the endpoint handle. Call before flag.Parse.
func AdminFlag() *AdminEndpoint {
	return &AdminEndpoint{addr: flag.String("admin", "",
		"serve the observability endpoint (/metrics, /healthz, /debug/pprof/) on this address; bind it to loopback, it carries no authentication")}
}

// Start serves a on the -admin address and returns the bound address,
// or nil when the flag was left empty. The endpoint owns a's listener
// from then on: Shutdown drains it.
func (e *AdminEndpoint) Start(a *Admin) (net.Addr, error) {
	if *e.addr == "" {
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
