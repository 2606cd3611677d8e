// Command irrd serves IRR databases over the IRRd query protocol, the
// way RADb does. Feed it RPSL dump files (from synthgen or a real
// mirror) and query with the irrd shorthand operators filter-building
// tools use.
//
// Usage:
//
//	irrd -listen 127.0.0.1:4343 [-admin 127.0.0.1:9343] ripe.db radb.db
//	irrd -query '!gAS64500' ripe.db             # one-shot, no server
//
// With -admin ADDR an observability endpoint serves /metrics
// (Prometheus text, including irr_query_seconds latency), /healthz and
// /debug/pprof/. Bind it to loopback: it carries no authentication.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"manrsmeter/internal/irr"
	"manrsmeter/internal/obsv"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("irrd: ")
	listen := flag.String("listen", "127.0.0.1:4343", "listen address")
	query := flag.String("query", "", "answer one query against the loaded databases and exit")
	adminEP := obsv.AdminFlag()
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("no database dumps given")
	}

	registry := irr.NewRegistry()
	for _, path := range flag.Args() {
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		name = strings.TrimPrefix(name, "irr-")
		db := irr.NewDatabase(name)
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		skipped, err := db.Load(f)
		f.Close()
		if err != nil {
			log.Fatalf("load %s: %v", path, err)
		}
		log.Printf("loaded %s: %d objects, %d routes (%d malformed skipped)",
			db.Name, db.NumObjects(), db.NumRoutes(), skipped)
		registry.AddDatabase(db)
	}

	// Surface objects the merged validation index cannot hold before
	// serving, rather than panicking mid-query.
	if _, err := registry.Index(); err != nil {
		log.Printf("warning: some IRR objects not indexable: %v", err)
	}

	srv := irr.NewQueryServer(registry)
	if *query != "" {
		fmt.Print(srv.Answer(*query))
		return
	}

	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving %d route objects on %s", registry.NumRoutes(), addr)

	if adminAddr, err := adminEP.Start(&obsv.Admin{Healthz: func() obsv.Health {
		return obsv.Health{OK: true, Detail: map[string]string{
			"databases": fmt.Sprint(flag.NArg()),
			"routes":    fmt.Sprint(registry.NumRoutes()),
		}}
	}}); err != nil {
		log.Fatalf("admin endpoint: %v", err)
	} else if adminAddr != nil {
		log.Printf("admin endpoint on http://%s", adminAddr)
	}

	// SIGINT/SIGTERM drain in-flight queries for up to 5s before
	// force-closing them; a second signal kills the process via the
	// restored default handler.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	if err := adminEP.Drain(srv.Shutdown); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
}
