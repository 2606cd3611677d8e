// Command synthgen generates a synthetic Internet and writes it out in
// the on-disk formats the paper's pipeline consumes: CAIDA as-rel /
// as2org / prefix2as, a RIPE-style validated-ROA CSV, RPSL dumps of every
// IRR database, a RouteViews-style MRT TABLE_DUMP_V2 RIB snapshot, and
// the MANRS participant list.
//
// Usage:
//
//	synthgen [-seed N] [-scale small|full|large] -out DIR
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"manrsmeter"
	"manrsmeter/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("synthgen: ")
	seed := flag.Int64("seed", 1, "generator seed")
	scale := flag.String("scale", "small", "world scale: small | full | large (internet-scale, ~75k ASes / ~1M prefixes)")
	out := flag.String("out", "synth-data", "output directory")
	scenName := flag.String("scenario", "", "inject a builtin adversarial scenario before writing archives (as0-hijack, expired-certs, rp-failure, anchor-pairs, roa-delay)")
	scenFile := flag.String("scenario-file", "", "inject a scenario decoded from this file (text encoding)")
	flag.Parse()

	cfg, err := manrsmeter.Preset(*scale, *seed)
	if err != nil {
		log.Fatalf("-scale: %v", err)
	}
	world, err := synth.Generate(cfg)
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	// SIGINT/SIGTERM cancel the run between output files and inside the
	// relying-party run and the dataset build (the expensive stages);
	// files already written stay on disk, and no file is left
	// half-written by the cancellation itself.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *scenName != "" || *scenFile != "" {
		// Archives are then written from the mutated fork: the hijack
		// ROAs land in vrps.csv, injected announcements in the MRT RIB,
		// and a failed relying party's VRPs vanish — downstream tools
		// (manrs-report -data) see the degraded world.
		var sc *manrsmeter.Scenario
		if *scenFile != "" {
			data, err := os.ReadFile(*scenFile)
			if err != nil {
				log.Fatal(err)
			}
			if sc, err = manrsmeter.DecodeScenario(data); err != nil {
				log.Fatal(err)
			}
		} else if sc, err = manrsmeter.BuiltinScenario(ctx, *scenName, world, world.Date(cfg.EndYear)); err != nil {
			log.Fatal(err)
		}
		world, err = manrsmeter.ApplyScenario(world, sc, world.Date(cfg.EndYear))
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("injected scenario %s (%d events)", sc.Name, len(sc.Events))
	}
	err = world.WriteFiles(ctx, *out, world.Date(cfg.EndYear), func(path string) { fmt.Println("wrote", path) })
	if err != nil {
		log.Fatal(err)
	}
}
