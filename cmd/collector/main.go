// Command collector runs a RouteViews-style BGP route collector: it
// accepts BGP-4 peerings on a TCP port, absorbs announcements into a
// multi-peer RIB, and writes an MRT TABLE_DUMP_V2 snapshot either
// periodically or on shutdown — the rib.mrt of a manrs-report -data
// directory. BGP-4 is its only feed. A snapshot holds exactly the
// paths its peers announced: TestWireSubstrateOracle replays seeded
// worlds' vantage-point paths into a collector and checks its dump
// against the same paths written straight to MRT.
//
// Usage:
//
//	collector -listen 127.0.0.1:1790 -asn 65000 -out rib.mrt [-interval 5m]
//	          [-admin 127.0.0.1:9790]
//
// Each dump replaces -out whole: the snapshot is written to a temporary
// file beside it and renamed over it only once it is complete, so a
// failed or interrupted dump leaves the previous snapshot in place.
// SIGINT/SIGTERM write a final dump, then give live sessions up to 5s
// to wind down; the collector exits non-zero if that final dump fails.
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
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
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
	adminEP := obsv.AdminFlag()
	flag.Parse()

	c := collector.New(uint32(*asn), [4]byte{192, 0, 2, 255},
		collector.WithHoldTime(*holdTime),
		collector.WithMaxPeers(*maxPeers))
	addr, err := c.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("AS%d collecting on %s", *asn, addr)

	if adminAddr, err := adminEP.Start(&obsv.Admin{Healthz: func() obsv.Health {
		return obsv.Health{OK: true, Detail: map[string]string{
			"peers":  fmt.Sprint(c.NumPeers()),
			"routes": fmt.Sprint(c.RIB().Len()),
		}}
	}}); err != nil {
		log.Fatalf("admin endpoint: %v", err)
	} else if adminAddr != nil {
		log.Printf("admin endpoint on http://%s", adminAddr)
	}

	dumpRIB := func(context.Context) error {
		if err := dump(*out, func(w io.Writer) error { return c.DumpMRT(w, time.Now().UTC()) }); err != nil {
			return fmt.Errorf("dump: %w", err)
		}
		log.Printf("wrote %s: %d peers, %d routes", *out, c.NumPeers(), c.RIB().Len())
		return nil
	}

	// A second signal kills the process via the restored default handler.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	var tick <-chan time.Time // nil with -interval 0: only a signal ends the wait
	if *interval > 0 {
		ticker := time.NewTicker(*interval)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-tick:
			if err := dumpRIB(ctx); err != nil {
				log.Print(err)
			}
		case <-ctx.Done():
			// The final snapshot goes first: it is the artifact this
			// daemon exists to produce.
			if err := adminEP.Drain(dumpRIB, c.Shutdown); err != nil {
				log.Fatalf("shutdown: %v", err)
			}
			return
		}
	}
}

// dump writes a snapshot through write into a temporary file beside
// path and renames it over path only once write, Sync and Close have
// all succeeded, so a failed dump leaves the previous snapshot intact.
// The snapshot is world-readable, as a file os.Create made would be.
func dump(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	err = f.Chmod(0o644)
	if err == nil {
		err = write(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
