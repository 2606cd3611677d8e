package obsv

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"sync"
	"time"
)

// drainTimeout bounds a daemon's whole shutdown: every stop function
// and the admin endpoint share it, and whatever is still open when it
// expires is force-closed.
const drainTimeout = 5 * time.Second

// AdminEndpoint is the -admin wiring of the commands that run long
// enough to be scraped (the daemons and manrs-report): one call
// registers the flag, one call after flag.Parse serves the endpoint (a
// no-op when the flag was left empty), and one call once the daemon's
// signal context is done drains the daemon and the endpoint.
//
//	adminEP := obsv.AdminFlag()
//	flag.Parse()
//	if addr, err := adminEP.Start(&obsv.Admin{Healthz: healthz}); err != nil {
//		log.Fatalf("admin endpoint: %v", err)
//	} else if addr != nil {
//		log.Printf("admin endpoint on http://%s", addr)
//	}
//	<-ctx.Done()
//	if err := adminEP.Drain(srv.Shutdown); err != nil {
//		log.Fatalf("shutdown: %v", err)
//	}
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
// from then on: Drain (or Shutdown) closes it.
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

// Drain is a daemon's one way out after its signal context is done: it
// runs each stop in order, then drains the endpoint, all under one
// drainTimeout context, and logs "drained cleanly" only when every step
// succeeded. The result joins every failure, so each cause stays
// reachable through errors.Is; a daemon exits non-zero on it.
func (e *AdminEndpoint) Drain(stop ...func(context.Context) error) error {
	log.Printf("shutting down (draining up to %v)", drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	var errs []error
	for _, f := range stop {
		if err := f(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	if err := e.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("admin endpoint: %w", err))
	}
	if len(errs) == 0 {
		log.Printf("drained cleanly")
	}
	return errors.Join(errs...)
}
