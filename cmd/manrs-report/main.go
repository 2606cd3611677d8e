// Command manrs-report regenerates every table and figure of the paper's
// evaluation over a freshly generated synthetic Internet and prints them
// to stdout.
//
// Usage:
//
//	manrs-report [-seed N] [-scale small|full|large] [-data DIR] [-skip-stability] [-weeks N]
//	             [-workers N] [-trace] [-cpuprofile FILE] [-admin ADDR]
//	             [-timeout D] [-section-timeout D] [-continue-on-error]
//	manrs-report -scenario NAME|list [-scenario-file FILE] [-seed N] [-scale S] [-workers N]
//
// With -data DIR the report runs over the paper's input archives in DIR
// (as synthgen writes them, or real ones in the same formats) instead
// of a generated world: the sections those files support render as they
// would over the world that wrote them, and the rest (the by-RIR split,
// the dated series and the simulations) render a skip placeholder.
// -seed, -scale and -weeks do not apply to such a world, and setting
// any of them beside -data is an error.
//
// With -scenario NAME it instead generates a world, injects the named
// adversarial scenario (as0-hijack, expired-certs, rp-failure,
// anchor-pairs, roa-delay; "list" names them), or one decoded from
// -scenario-file, into a copy-on-write fork, and prints the measured
// degradation against the untouched baseline, ending in the health
// trailer.
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
	data := flag.String("data", "", "run over the archives in this directory (as synthgen writes them) instead of a generated world")
	scenName := flag.String("scenario", "", "print the measured degradation of a builtin adversarial scenario instead of the report (list: name them)")
	scenFile := flag.String("scenario-file", "", "like -scenario, for a scenario decoded from this file (text encoding)")
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
	if *scenName != "" || *scenFile != "" {
		if *data != "" {
			log.Fatal("-scenario runs on a generated world: drop -data")
		}
		if err := runScenario(*scenName, *scenFile, *seed, *scale, *workers); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *data != "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" || f.Name == "scale" || f.Name == "weeks" {
				log.Fatalf("-%s does not apply to -data: the world and its one date come from %s", f.Name, *data)
			}
		})
	}

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
	err := run(ctx, *seed, *scale, *data, opts, *trace, adminEP)
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

func run(ctx context.Context, seed int64, scale, data string, opts manrsmeter.ReportOptions, trace bool, adminEP *obsv.AdminEndpoint) error {
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
	var world *manrsmeter.World
	if data != "" {
		var err error
		if world, err = manrsmeter.LoadWorld(data); err != nil {
			return err
		}
		fmt.Printf("loaded %s as of %s: %d ASes, %d MANRS members, %d IRR objects, %d vantage points (%.1fs)\n\n",
			data, world.Date(world.Config.EndYear).Format(time.DateOnly), world.Graph.NumASes(), world.MANRS.Len(),
			world.IRRRegistry.NumRoutes(), len(world.VantagePoints), time.Since(start).Seconds())
	} else {
		cfg, err := manrsmeter.Preset(scale, seed)
		if err != nil {
			return fmt.Errorf("-scale: %w", err)
		}
		if world, err = manrsmeter.GenerateWorld(cfg); err != nil {
			return fmt.Errorf("generate world: %w", err)
		}
		fmt.Printf("generated synthetic Internet: %d ASes, %d MANRS members, %d ROAs, %d IRR objects (%.1fs)\n\n",
			world.Graph.NumASes(), world.MANRS.Len(), world.Repo.NumROAs(),
			world.IRRRegistry.NumRoutes(), time.Since(start).Seconds())
	}

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

// runScenario is the -scenario mode: generate a world, inject the
// adversarial scenario into a copy-on-write fork, and print the
// measured degradation against the untouched baseline.
func runScenario(name, file string, seed int64, scale string, workers int) error {
	if name == "list" {
		for _, n := range manrsmeter.ScenarioNames() {
			fmt.Println(n)
		}
		return nil
	}
	cfg, err := manrsmeter.Preset(scale, seed)
	if err != nil {
		return fmt.Errorf("-scale: %w", err)
	}
	log.Printf("generating world (seed %d, scale %s)", seed, scale)
	world, err := manrsmeter.GenerateWorld(cfg)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var sc *manrsmeter.Scenario
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		if sc, err = manrsmeter.DecodeScenario(data); err != nil {
			return err
		}
	} else if sc, err = manrsmeter.BuiltinScenario(ctx, name, world, time.Time{}); err != nil {
		return err
	}
	res, err := manrsmeter.RunScenario(ctx, world, sc, manrsmeter.ScenarioOptions{Workers: workers})
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}
