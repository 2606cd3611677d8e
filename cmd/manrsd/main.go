// Command manrsd serves MANRS conformance answers over HTTP/JSON: per-AS
// Action 1 / Action 4 conformance, per-prefix origination and ROA/IRR
// state, ecosystem aggregates, and rendered report sections, computed
// from versioned snapshots of a synthetic Internet and published with
// atomic swaps.
//
// Usage:
//
//	manrsd [-seed N] [-scale small|full|large] [-listen 127.0.0.1:8180]
//	       [-workers N] [-max-inflight N] [-request-timeout D]
//	       [-build-timeout D] [-drain D] [-peers URL,...]
//	       [-admin 127.0.0.1:9180] [-data-dir DIR] [-snap-budget BYTES]
//	       [-access-log-sample N] [-trace-cap N]
//
// With -data-dir DIR every successfully built snapshot is archived to
// DIR, one checksummed file per date written atomically over the
// date's previous archive, and a restarted daemon warm-starts from it:
// every query for an archived date, scenarios included, is answered
// from what the archive holds, and nothing is rebuilt. Corrupt
// archives are detected by checksum, moved aside, and never served;
// -snap-budget bounds the directory size. Boot tries the archive, then
// -peers, then builds the headline snapshot cold.
//
// Endpoints (all /v1 routes accept ?date=YYYY-MM-DD within the world's
// study window and return strong ETags; requests beyond -max-inflight
// are shed with 503 + Retry-After):
//
//	GET /v1/as/{asn}/conformance   per-AS MANRS conformance detail
//	GET /v1/prefix/{prefix}        originations + covering ROAs/IRR routes
//	GET /v1/stats                  ecosystem aggregates, RPKI saturation
//	GET /v1/report                 the renderable report sections
//	GET /v1/report/{section}       one rendered section
//	GET /v1/scenario               the builtin adversarial scenarios
//	GET /v1/scenario/{name}        degradation vs baseline for one scenario
//	GET /healthz                   liveness (200 even while warming)
//
// The /v1/scenario routes run the adversarial scenario engine against
// a copy-on-write fork of the served snapshot: relying-party failure,
// hijack ROAs, expired chains, anchor-pair experiments, ROA delay. A
// degraded ecosystem is a successful answer — rp-failure returns 200
// with health.degraded=true, never a 5xx.
//
// Every request is correlated end to end: a W3C traceparent header is
// honored (or minted) per request, echoed in the response, recorded on
// the request span, and written to the sampled key=value access log on
// stderr (-access-log-sample N logs 1-in-N; server errors always log).
// -trace-cap bounds the retained span tree, so tracing stays on in
// long-running daemons.
//
// SIGINT/SIGTERM drain in-flight requests for up to -drain before
// force-closing; a second signal kills the process via the restored
// default handler. With -admin ADDR the observability endpoint serves
// /metrics (per-route RED counters and latency summaries, runtime
// gauges, GC pause quantiles), /healthz (snapshot publication state),
// /debug/pprof/, /debug/trace (the span tree) and /debug/latency
// (live p50/p90/p99/p99.9 per route).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"manrsmeter"
	"manrsmeter/internal/durable"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("manrsd: ")
	seed := flag.Int64("seed", 1, "generator seed")
	scale := flag.String("scale", "full", "world scale: small | full | large (internet-scale, ~75k ASes / ~1M prefixes)")
	listen := flag.String("listen", "127.0.0.1:8180", "listen address for the query API")
	workers := flag.Int("workers", 0, "worker goroutines per snapshot build (0 = one per CPU)")
	maxInFlight := flag.Int("max-inflight", serve.DefaultMaxInFlight, "admission limit on concurrently served requests; arrivals beyond it are shed with 503")
	requestTimeout := flag.Duration("request-timeout", serve.DefaultRequestTimeout, "end-to-end deadline per request, including any snapshot build it waits on")
	buildTimeout := flag.Duration("build-timeout", 0, "deadline per background snapshot build (0 = none)")
	drain := flag.Duration("drain", 5*time.Second, "bound on draining in-flight requests at shutdown; whatever remains is force-closed")
	dataDir := flag.String("data-dir", "", "directory for durable snapshot archives; restarts warm-start from the last known-good archive (empty = no persistence)")
	peers := flag.String("peers", "", "comma-separated peer base URLs (replicas or a manrs-gw gateway); at boot a snapshot is pulled from the first peer that has one published, skipping the local rebuild")
	snapBudget := flag.Int64("snap-budget", durable.DefaultMaxBytes, "retention budget in bytes for the -data-dir archive directory")
	accessLogSample := flag.Int("access-log-sample", serve.DefaultAccessLogSample, "access-log head sampling: log 1-in-N requests (server errors always logged); 1 logs every request, 0 the default")
	traceCap := flag.Int("trace-cap", 4096, "bound on retained request spans for /debug/trace; 0 disables request tracing")
	adminEP := obsv.AdminFlag()
	flag.Parse()

	cfg, err := manrsmeter.Preset(*scale, *seed)
	if err != nil {
		log.Fatalf("-scale: %v", err)
	}

	start := time.Now()
	world, err := manrsmeter.GenerateWorld(cfg)
	if err != nil {
		log.Fatalf("generate world: %v", err)
	}
	log.Printf("generated synthetic Internet: %d ASes, %d MANRS members (%.1fs)",
		world.Graph.NumASes(), world.MANRS.Len(), time.Since(start).Seconds())

	var dstore *durable.Store
	if *dataDir != "" {
		dstore, err = durable.Open(*dataDir, durable.Options{
			MaxBytes: *snapBudget,
			Logf:     log.Printf,
		})
		if err != nil {
			log.Fatalf("open snapshot archive: %v", err)
		}
		log.Printf("durable snapshot archive at %s (budget %d bytes)", dstore.Dir(), *snapBudget)
	}

	serveLog := obsv.NewLogger(os.Stderr, obsv.LevelInfo).With("serve")
	store := serve.NewStore(world, serve.StoreOptions{
		Workers:      *workers,
		BuildTimeout: *buildTimeout,
		Durable:      dstore,
		Logf:         log.Printf,
	})
	// The bounded tracer and the sampled access log are the two halves
	// of request correlation: a traceparent injected by a client is
	// greppable in the access log and visible in the span tree at
	// /debug/trace under the same trace ID.
	var tracer *obsv.Tracer
	if *traceCap > 0 {
		tracer = obsv.NewBoundedTracer(*traceCap)
	}
	srv := serve.NewServer(store, serve.Options{
		MaxInFlight:     *maxInFlight,
		RequestTimeout:  *requestTimeout,
		Tracer:          tracer,
		AccessLog:       obsv.NewLogger(os.Stderr, obsv.LevelInfo).With("access"),
		AccessLogSample: *accessLogSample,
		Logf: func(format string, args ...any) {
			serveLog.Error(fmt.Sprintf(format, args...))
		},
	})

	// SIGINT/SIGTERM drain; a second signal kills the process via the
	// restored default handler (NotifyContext stops listening once the
	// context is done).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	warmStart := time.Now()
	// Try the durable archive first: a restart serves the last
	// known-good snapshots as they are. The world is immutable and a
	// version names its content, so a rebuild could only reproduce
	// the verified bytes just loaded.
	restored, err := store.WarmStart(ctx)
	if restored > 0 {
		log.Printf("warm start: %d snapshot(s) restored from archive (%.3fs)",
			restored, time.Since(warmStart).Seconds())
	} else if err != nil {
		log.Printf("warm start from archive failed (%v); falling back", err)
	}
	// Wire replication beats a local rebuild: a replica joining a
	// fleet whose snapshot is already published pulls the archive
	// from a peer (or the gateway's coordinator relay) and catches up
	// in milliseconds instead of rebuilding.
	if !store.Ready() && *peers != "" {
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
				peerList = append(peerList, p)
			}
		}
		if snap, peer, err := store.SyncPeers(ctx, nil, peerList, store.DefaultDate()); err == nil {
			log.Printf("synced snapshot %s from peer %s via wire replication (no local rebuild, %.3fs)",
				snap.Version, peer, time.Since(warmStart).Seconds())
		} else {
			log.Printf("peer sync failed (%v); falling back to a cold build", err)
		}
	}
	if !store.Ready() {
		if _, err := store.Get(ctx, store.DefaultDate()); err != nil {
			log.Fatalf("warm headline snapshot: %v", err)
		}
		log.Printf("headline snapshot %s published (%.1fs)",
			store.Version(store.DefaultDate()), time.Since(warmStart).Seconds())
	}

	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving conformance queries on http://%s", addr)

	if adminAddr, err := adminEP.Start(&obsv.Admin{
		Tracer: tracer,
		Healthz: func() obsv.Health {
			detail := store.Status()
			detail["ready"] = fmt.Sprint(store.Ready())
			return obsv.Health{OK: store.Ready(), Detail: detail}
		},
	}); err != nil {
		log.Fatalf("admin endpoint: %v", err)
	} else if adminAddr != nil {
		log.Printf("admin endpoint on http://%s", adminAddr)
	}

	<-ctx.Done()
	log.Printf("shutting down (draining up to %v)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = srv.Shutdown(drainCtx)
	if aerr := adminEP.Shutdown(drainCtx); aerr != nil {
		log.Printf("shutdown admin: %v", aerr)
	}
	// Let an in-flight snapshot archive finish: losing it only costs
	// the next boot a cold build, but it is cheap to keep.
	store.WaitPersist()
	if err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	log.Printf("drained cleanly")
}
