// Command collector runs a RouteViews-style BGP route collector: it
// accepts BGP-4 peerings on a TCP port, absorbs announcements into a
// multi-peer RIB, and writes an MRT TABLE_DUMP_V2 snapshot either
// periodically or on shutdown — input for cmd/hegemony and
// cmd/manrs-audit. BGP-4 is its only feed. A snapshot holds exactly the
// paths its peers announced: TestWireSubstrateOracle replays seeded
// worlds' vantage-point paths into a collector and checks its dump
// against the same paths written straight to MRT.
//
// Usage:
//
//	collector -listen 127.0.0.1:1790 -asn 65000 -out rib.mrt [-interval 5m]
//	          [-admin 127.0.0.1:9790]
//
// With -admin ADDR an observability endpoint serves /metrics
// (Prometheus text: routes received/withdrawn, MRT bytes, peer
// sessions), /healthz (live peer and RIB counts) and /debug/pprof/.
// Bind it to loopback: it carries no authentication.
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

	"manrsmeter/internal/bgp/collector"
	"manrsmeter/internal/obsv"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("collector: ")
	listen := flag.String("listen", "127.0.0.1:1790", "listen address for BGP peers")
	asn := flag.Uint("asn", 65000, "collector AS number")
	out := flag.String("out", "rib.mrt", "MRT snapshot path")
	interval := flag.Duration("interval", 0, "periodic dump interval (0 = dump only on shutdown)")
	holdTime := flag.Duration("hold-time", 90*time.Second, "advertised BGP hold time; silent peers are torn down and their routes withdrawn")
	maxPeers := flag.Int("max-peers", 0, "cap on concurrent peer connections (0 = unlimited)")
	drain := flag.Duration("drain", 5*time.Second, "bound on waiting for peer sessions to wind down at shutdown; whatever remains is force-closed")
	adminEP := obsv.AdminFlag(nil)
	flag.Parse()

	c := collector.New(uint32(*asn), [4]byte{192, 0, 2, 255},
		collector.WithHoldTime(*holdTime),
		collector.WithMaxPeers(*maxPeers))
	addr, err := c.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("AS%d collecting on %s", *asn, addr)

	if adminAddr, err := adminEP.Start(func() obsv.Health {
		return obsv.Health{OK: true, Detail: map[string]string{
			"peers":  fmt.Sprint(c.NumPeers()),
			"routes": fmt.Sprint(c.RIB().Len()),
		}}
	}); err != nil {
		log.Fatalf("admin endpoint: %v", err)
	} else if adminAddr != nil {
		log.Printf("admin endpoint on http://%s", adminAddr)
	}

	dump := func() {
		f, err := os.Create(*out)
		if err != nil {
			log.Printf("dump: %v", err)
			return
		}
		if err := c.DumpMRT(f, time.Now().UTC()); err != nil {
			log.Printf("dump: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Printf("dump: %v", err)
			return
		}
		log.Printf("wrote %s: %d peers, %d routes", *out, c.NumPeers(), c.RIB().Len())
	}

	// SIGINT/SIGTERM start a graceful shutdown: the final snapshot is
	// written first (it is the artifact this daemon exists to produce),
	// then live sessions get -drain to wind down before a forced close.
	// A second signal kills the process via the restored default handler.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	shutdown := func() {
		dump()
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := c.Shutdown(drainCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if err := adminEP.Shutdown(drainCtx); err != nil {
			log.Printf("shutdown admin: %v", err)
		}
	}

	if *interval > 0 {
		ticker := time.NewTicker(*interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				dump()
			case <-ctx.Done():
				log.Printf("shutting down (draining up to %v)", *drain)
				shutdown()
				return
			}
		}
	}
	<-ctx.Done()
	log.Printf("shutting down (draining up to %v)", *drain)
	shutdown()
}
