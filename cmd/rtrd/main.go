// Command rtrd serves a validated-ROA snapshot to routers over the
// RPKI-to-Router protocol (RFC 8210), like Routinator or StayRTR. Feed
// it a VRP CSV (from synthgen or a real archive) and point an RTR client
// at it; rtrd -fetch acts as that client for testing: one Reset Query
// exchange, bounded by -timeout, that prints the snapshot or fails. It
// does not retry: a restarting cache is a rerun. The served VRPs are the
// relying party's: TestWireSubstrateOracle fetches and incrementally
// updates seeded worlds' VRPs through the same server and checks them
// against the in-memory view of each date.
//
// Usage:
//
//	rtrd -vrps vrps.csv -listen 127.0.0.1:8282 [-admin 127.0.0.1:9282]
//	rtrd -fetch 127.0.0.1:8282 [-timeout 30s]
//
// With -admin ADDR an observability endpoint serves /metrics
// (Prometheus text), /healthz (session/serial state) and
// /debug/pprof/. Bind it to loopback: it carries no authentication.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"manrsmeter/internal/obsv"
	"manrsmeter/internal/rpki"
	"manrsmeter/internal/rpki/rtr"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtrd: ")
	vrpPath := flag.String("vrps", "", "validated-ROA CSV to serve")
	listen := flag.String("listen", "127.0.0.1:8282", "listen address")
	fetch := flag.String("fetch", "", "act as a client: fetch a snapshot from this cache and print it")
	timeout := flag.Duration("timeout", 30*time.Second, "with -fetch: bound on the dial and the whole exchange")
	drain := flag.Duration("drain", 5*time.Second, "bound on waiting for client sessions to finish at shutdown; whatever remains is force-closed")
	adminEP := obsv.AdminFlag()
	flag.Parse()

	if *fetch != "" {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		res, err := rtr.Fetch(ctx, *fetch)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("session %d serial %d: %d VRPs\n", res.Session, res.Serial, len(res.VRPs))
		for _, v := range res.VRPs {
			fmt.Printf("%s AS%d max /%d\n", v.Prefix, v.ASN, v.MaxLength)
		}
		return
	}

	if *vrpPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*vrpPath)
	if err != nil {
		log.Fatal(err)
	}
	vrps, err := rpki.ReadVRPCSV(f)
	f.Close()
	if err != nil {
		log.Fatalf("read VRPs: %v", err)
	}
	srv := rtr.NewServer(vrps)
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving %d VRPs on %s (RTR v%d)", len(vrps), addr, rtr.Version)

	if adminAddr, err := adminEP.Start(&obsv.Admin{Healthz: func() obsv.Health {
		return obsv.Health{OK: true, Detail: map[string]string{
			"serial": fmt.Sprint(srv.Serial()),
			"vrps":   fmt.Sprint(len(vrps)),
		}}
	}}); err != nil {
		log.Fatalf("admin endpoint: %v", err)
	} else if adminAddr != nil {
		log.Printf("admin endpoint on http://%s", adminAddr)
	}

	// SIGINT/SIGTERM drain client sessions for up to -drain before
	// force-closing them; a second signal kills the process via the
	// restored default handler.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	log.Printf("shutting down (draining up to %v)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = srv.Shutdown(drainCtx)
	if aerr := adminEP.Shutdown(drainCtx); aerr != nil {
		log.Printf("shutdown admin: %v", aerr)
	}
	if err != nil {
		log.Fatal(err)
	}
}
