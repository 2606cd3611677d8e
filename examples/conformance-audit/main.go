// Conformance audit: the private monthly report MANRS sends operators
// (§1), reconstructed from public-style data. Generates a synthetic
// Internet, picks MANRS member ASes, and prints each one's Action 4
// (prefix origination) and Action 1 (route filtering) scorecard with the
// exact formulas from the paper (§6.4).
//
// Run with:
//
//	go run ./examples/conformance-audit [-seed N] [-asn N]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"manrsmeter"
)

func main() {
	log.SetFlags(0)
	seed := flag.Int64("seed", 7, "generator seed")
	asnFlag := flag.Uint("asn", 0, "audit a specific member AS (0 = first five members)")
	flag.Parse()

	cfg, err := manrsmeter.Preset("small", *seed)
	if err != nil {
		log.Fatal(err)
	}
	world, err := manrsmeter.GenerateWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := manrsmeter.NewPipeline(world)
	if err != nil {
		log.Fatal(err)
	}
	metrics := pipe.Metrics()

	var targets []manrsmeter.Participant
	if *asnFlag != 0 {
		part, ok := world.MANRS.Lookup(uint32(*asnFlag))
		if !ok {
			log.Fatalf("AS%d is not a MANRS member", *asnFlag)
		}
		targets = []manrsmeter.Participant{part}
	} else {
		members := world.MANRS.Members(pipe.AsOf)
		for _, m := range members {
			if metrics[m.ASN] != nil && metrics[m.ASN].Originated > 0 {
				targets = append(targets, m)
				if len(targets) == 5 {
					break
				}
			}
		}
	}

	for _, part := range targets {
		audit(pipe, metrics[part.ASN], part)
	}
}

func audit(pipe *manrsmeter.Pipeline, m *manrsmeter.ASMetrics, part manrsmeter.Participant) {
	fmt.Printf("=== MANRS conformance report — AS%d (%s program, joined %s) ===\n",
		part.ASN, part.Program, part.Joined.Format("2006-01-02"))
	class := manrsmeter.ClassifySize(pipe.World.Graph.CustomerDegree(part.ASN))
	fmt.Printf("network size: %s (%d direct customers)\n",
		class, pipe.World.Graph.CustomerDegree(part.ASN))

	if m == nil || m.Originated == 0 {
		fmt.Println("Action 4: no originated prefixes visible — trivially conformant")
	} else {
		fmt.Printf("Action 4 — originates %d prefixes:\n", m.Originated)
		fmt.Printf("  OG_RPKIvalid  (Formula 1): %s\n", pct(m.OGRPKIValid()))
		fmt.Printf("  OG_IRRvalid   (Formula 2): %s\n", pct(m.OGIRRValid()))
		fmt.Printf("  OG_conformant (Formula 3): %s", pct(m.OGConformant()))
		threshold := manrsmeter.Action4Threshold(part.Program)
		if m.OGConformant() >= threshold {
			fmt.Printf("  → PASS (threshold %.0f%%)\n", threshold)
		} else {
			fmt.Printf("  → FAIL (threshold %.0f%%)\n", threshold)
		}
	}

	if m == nil || m.PropCustomer == 0 {
		fmt.Println("Action 1: no customer announcements propagated — trivially conformant")
	} else {
		fmt.Printf("Action 1 — propagates %d announcements (%d from customers):\n",
			m.Propagated, m.PropCustomer)
		fmt.Printf("  PG_RPKIinv (Formula 4): %s\n", pct(m.PGRPKIInvalid()))
		fmt.Printf("  PG_IRRinv  (Formula 5): %s\n", pct(m.PGIRRInvalid()))
		fmt.Printf("  PG_unc     (Formula 6): %s", pct(m.PGUnconformant()))
		if m.PGUnconformant() == 0 {
			fmt.Println("  → PASS (no unconformant customer routes)")
		} else {
			fmt.Println("  → FAIL (unconformant customer routes propagated)")
		}
	}
	fmt.Println()
}

func pct(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", v)
}
