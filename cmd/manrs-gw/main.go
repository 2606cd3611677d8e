// Command manrs-gw fronts a fleet of manrsd replicas with a stateless
// consistent-hash gateway: /v1 queries route to the replica owning the
// query's shard key (ASN or prefix) on a deterministic rendezvous
// ring, so each entity's queries concentrate on one replica's hot
// cache while the fleet shares the total load.
//
// Usage:
//
//	manrs-gw -replicas http://h1:8180,http://h2:8180,http://h3:8180
//	         [-listen 127.0.0.1:8170]
//	         [-probe-interval D] [-probe-timeout D]
//	         [-max-inflight N] [-request-timeout D]
//	         [-admin 127.0.0.1:9170] [-access-log-sample N]
//
// Every gateway routes on the same ring seed, so any instance sends a
// key to the same replica. Failure model: replica health is probed
// every -probe-interval with hysteresis (two consecutive failures
// demote, two consecutive successes promote), and connect failures
// seen while proxying count as failed probes, so a dead replica leaves
// the ring within a probe or two.
// Idempotent GETs are retried once on a distinct replica after a
// connect failure or 503; requests past -max-inflight are shed with
// 503 and the same pressure-scaled Retry-After the replicas use (1s,
// growing with the shed streak, capped at 60s), and requests arriving
// while no replica is live are refused with 503 + Retry-After: 1. The
// gateway never rewrites replica answers — fingerprint-scoped ETags
// are identical across replicas of one world, which keeps 200/304
// revalidation coherent no matter which replica answers — and a
// replica serving an unexpected snapshot version for a date raises
// cluster_version_mismatch_total instead of silently mixing worlds.
//
// Every proxied request carries a W3C traceparent (honored or minted),
// echoed downstream and back, so one trace ID correlates the load
// generator, the gateway access log, and the owning replica's access
// log. Every exit — sheds, 405s, no-replica refusals and 404s
// included — is counted in
// cluster_gateway_requests_total{route,code}, timed in
// cluster_gateway_request_duration_seconds{route}, and reaches the
// sampled access log. With -admin the usual observability endpoint
// serves /metrics (those per-route series, the per-replica
// cluster_proxy_* series, ring gauges), /healthz, and pprof.
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

	"manrsmeter/internal/cluster"
	"manrsmeter/internal/obsv"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("manrs-gw: ")
	replicasFlag := flag.String("replicas", "", "comma-separated replica base URLs (required), e.g. http://127.0.0.1:8180,http://127.0.0.1:8181")
	listen := flag.String("listen", "127.0.0.1:8170", "listen address for the gateway")
	probeInterval := flag.Duration("probe-interval", cluster.DefaultProbeInterval, "replica health-check period")
	probeTimeout := flag.Duration("probe-timeout", cluster.DefaultProbeTimeout, "deadline per health probe")
	maxInFlight := flag.Int("max-inflight", cluster.DefaultMaxInFlight, "admission limit on concurrently proxied requests; arrivals beyond it are shed with 503")
	requestTimeout := flag.Duration("request-timeout", cluster.DefaultRequestTimeout, "end-to-end deadline per proxied request, retry included")
	accessLogSample := flag.Int("access-log-sample", 1, "access-log head sampling: log 1-in-N proxied requests (errors always logged)")
	adminEP := obsv.AdminFlag()
	flag.Parse()

	var replicas []string
	for _, r := range strings.Split(*replicasFlag, ",") {
		r = strings.TrimRight(strings.TrimSpace(r), "/")
		if r != "" {
			replicas = append(replicas, r)
		}
	}
	if len(replicas) == 0 {
		log.Fatal("at least one -replicas URL is required")
	}

	gwLog := obsv.NewLogger(os.Stderr, obsv.LevelInfo).With("cluster")
	ring := cluster.NewRing(1, replicas...)
	members := cluster.NewMembership(ring, replicas, cluster.MembershipOptions{
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		Logf:          log.Printf,
	})
	gw := cluster.NewGateway(members, cluster.GatewayOptions{
		MaxInFlight:     *maxInFlight,
		RequestTimeout:  *requestTimeout,
		AccessLog:       obsv.NewLogger(os.Stderr, obsv.LevelInfo).With("access"),
		AccessLogSample: *accessLogSample,
		Logf: func(format string, args ...any) {
			gwLog.Warn(fmt.Sprintf(format, args...))
		},
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go members.Start(ctx)

	addr, err := gw.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("gateway serving on http://%s over %d replicas", addr, len(replicas))

	if adminAddr, err := adminEP.Start(&obsv.Admin{
		Healthz: func() obsv.Health {
			live := members.Live()
			detail := map[string]string{"live": fmt.Sprint(len(live))}
			for _, r := range members.Replicas() {
				state := "down"
				if members.Up(r) {
					state = "up"
				}
				detail["replica."+r] = state
			}
			return obsv.Health{OK: len(live) > 0, Detail: detail}
		},
	}); err != nil {
		log.Fatalf("admin endpoint: %v", err)
	} else if adminAddr != nil {
		log.Printf("admin endpoint on http://%s", adminAddr)
	}

	<-ctx.Done()
	if err := adminEP.Drain(gw.Shutdown); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
}
