// Command manrs-report regenerates every table and figure of the paper's
// evaluation over a freshly generated synthetic Internet and prints them
// to stdout.
//
// Usage:
//
//	manrs-report [-seed N] [-scale small|full|large] [-skip-stability] [-weeks N]
//	             [-workers N] [-trace] [-cpuprofile FILE] [-admin ADDR]
//	             [-timeout D] [-section-timeout D] [-continue-on-error]
//
// SIGINT/SIGTERM cancel the run: in-flight sections are asked to stop,
// and with -continue-on-error the sections already completed are still
// flushed (with a health trailer) before exit.
//
// With -admin ADDR an observability endpoint serves /metrics (Prometheus
// text), /healthz (live per-section statuses, the same state the health
// trailer renders at the end), /debug/pprof/ and /debug/trace (the span
// tree of the run so far) for the duration of the run. Bind it to
// loopback: it carries no authentication.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"manrsmeter"
	"manrsmeter/internal/obsv"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("manrs-report: ")
	seed := flag.Int64("seed", 1, "generator seed")
	scale := flag.String("scale", "full", "world scale: small | full | large (internet-scale, ~75k ASes / ~1M prefixes)")
	skipStability := flag.Bool("skip-stability", false, "skip the §8.5 weekly-snapshot analysis")
	weeks := flag.Int("weeks", 12, "weekly snapshots for the stability analysis")
	workers := flag.Int("workers", 0, "worker goroutines for the analysis (0 = one per CPU)")
	trace := flag.Bool("trace", false, "print the span tree of the run (sections, pipeline, dataset builds) to stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	adminEP := obsv.AdminFlag()
	timeout := flag.Duration("timeout", 0, "overall deadline for the whole run (0 = none)")
	sectionTimeout := flag.Duration("section-timeout", 0, "watchdog deadline per report section (0 = none)")
	continueOnError := flag.Bool("continue-on-error", false, "render diagnostic stanzas for failed sections instead of aborting; ends the report with a health trailer")
	flag.Parse()

	// stopProfile flushes and closes the CPU profile exactly once, on
	// whichever exit path runs first (deferred return, cancellation, or
	// error exit before the deferred calls run via log.Fatal).
	stopProfile := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			log.Fatalf("cpuprofile: %v", err)
		}
		var once sync.Once
		stopProfile = func() {
			once.Do(func() {
				pprof.StopCPUProfile()
				if err := f.Close(); err != nil {
					log.Printf("cpuprofile: close: %v", err)
				}
			})
		}
		defer stopProfile()
	}

	// SIGINT/SIGTERM cancel the context; a second signal kills the
	// process via the restored default handler (NotifyContext stops
	// listening once the context is done).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := manrsmeter.ReportOptions{
		SkipStability:   *skipStability,
		StabilityWeeks:  *weeks,
		Workers:         *workers,
		SectionTimeout:  *sectionTimeout,
		ContinueOnError: *continueOnError,
	}
	err := run(ctx, *seed, *scale, opts, *trace, adminEP)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		stopProfile()
		log.Fatalf("canceled: %v", err)
	}
	if err != nil {
		stopProfile() // flush before the non-deferred exit
		log.Fatal(err)
	}
}

// sectionHealth is /healthz for a report run: the status of every
// finished section, read off the "section" spans the run's tracer
// records (a span carries its name from the start and its status once
// the section ends) — the same states the ContinueOnError health
// trailer renders at the end of the run. Running sections are not
// listed yet.
func sectionHealth(tracer *obsv.Tracer) obsv.Health {
	out := obsv.Health{OK: true, Detail: map[string]string{}}
	done := 0
	for _, ev := range tracer.Events() {
		status := ev.Attr("status")
		if ev.Name != "section" || status == "" {
			continue
		}
		out.Detail["section."+ev.Attr("name")] = status
		if status != "ok" {
			out.OK = false
		}
		done++
	}
	out.Detail["sections_finished"] = fmt.Sprint(done)
	return out
}

func run(ctx context.Context, seed int64, scale string, opts manrsmeter.ReportOptions, trace bool, adminEP *obsv.AdminEndpoint) error {
	cfg, err := manrsmeter.Preset(scale, seed)
	if err != nil {
		return fmt.Errorf("-scale: %w", err)
	}

	tracer := obsv.NewTracer()
	opts.Tracer = tracer
	health := func() obsv.Health { return sectionHealth(tracer) }
	if addr, err := adminEP.Start(&obsv.Admin{Tracer: tracer, Healthz: health}); err != nil {
		return fmt.Errorf("admin endpoint: %w", err)
	} else if addr != nil {
		log.Printf("admin endpoint on http://%s", addr)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = adminEP.Shutdown(sctx)
		}()
	}

	start := time.Now()
	world, err := manrsmeter.GenerateWorld(cfg)
	if err != nil {
		return fmt.Errorf("generate world: %w", err)
	}
	fmt.Printf("generated synthetic Internet: %d ASes, %d MANRS members, %d ROAs, %d IRR objects (%.1fs)\n\n",
		world.Graph.NumASes(), world.MANRS.Len(), world.Repo.NumROAs(),
		world.IRRRegistry.NumRoutes(), time.Since(start).Seconds())

	reportErr := manrsmeter.RunReport(ctx, os.Stdout, world, opts)
	if trace {
		// The span tree replaces the old flat -trace wall-time lines:
		// sections nest under the report root with their status, and
		// pipeline/dataset builds nest under the sections that paid for
		// them.
		if err := tracer.WriteTree(os.Stderr); err != nil {
			log.Printf("trace: %v", err)
		}
	}
	if reportErr != nil {
		return fmt.Errorf("report: %w", reportErr)
	}
	return nil
}
