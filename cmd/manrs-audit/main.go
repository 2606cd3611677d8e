// Command manrs-audit runs the paper's conformance analysis from on-disk
// archives — the workflow of the real study, which consumed RouteViews
// MRT dumps, RPKI VRP archives, IRR snapshots, CAIDA as-rel and the
// MANRS participant list. Point it at a directory written by synthgen
// (or assembled from real archives in the same formats) and it prints an
// Action 1 / Action 4 scorecard for every participant.
//
// Usage:
//
//	synthgen -out data/
//	manrs-audit -data data/ [-asn 64500] [-unconformant-only]
//
// With -scenario NAME (no -data needed) it instead generates a world,
// injects the named adversarial scenario — as0-hijack, expired-certs,
// rp-failure, anchor-pairs, roa-delay, or a scenario file via
// -scenario-file — into a copy-on-write fork, and prints the measured
// degradation against the untouched baseline, ending in the health
// trailer:
//
//	manrs-audit -scenario as0-hijack [-seed 8] [-scale seed|large] [-workers N]
//
// With -admin ADDR an observability endpoint serves /metrics, /healthz
// and /debug/pprof/ for the duration of the audit. Bind it to
// loopback: it carries no authentication.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"manrsmeter"
	"manrsmeter/internal/astopo"
	"manrsmeter/internal/bgp/mrt"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/irr"
	"manrsmeter/internal/manrs"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/peeringdb"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpki"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("manrs-audit: ")
	dataDir := flag.String("data", "", "directory of archives (as written by synthgen)")
	asnFlag := flag.Uint("asn", 0, "audit only this AS")
	unconfOnly := flag.Bool("unconformant-only", false, "print only unconformant participants")
	asOfFlag := flag.String("asof", "2022-05-01", "evaluation date for freshness checks (YYYY-MM-DD)")
	scenName := flag.String("scenario", "", "run a builtin adversarial scenario against a generated world (see -scenario list)")
	scenFile := flag.String("scenario-file", "", "run a scenario decoded from this file (text or JSON encoding)")
	seed := flag.Int64("seed", 8, "generator seed for -scenario mode")
	scale := flag.String("scale", "seed", "generator preset for -scenario mode: seed|large")
	workers := flag.Int("workers", 0, "dataset build parallelism for -scenario mode (<=0: one per CPU)")
	adminEP := obsv.AdminFlag(nil)
	flag.Parse()
	if *dataDir == "" && *scenName == "" && *scenFile == "" {
		flag.Usage()
		os.Exit(2)
	}
	asOf, err := time.Parse("2006-01-02", *asOfFlag)
	if err != nil {
		log.Fatalf("bad -asof: %v", err)
	}

	if adminAddr, err := adminEP.Start(nil); err != nil {
		log.Fatalf("admin endpoint: %v", err)
	} else if adminAddr != nil {
		log.Printf("admin endpoint on http://%s", adminAddr)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = adminEP.Shutdown(sctx)
		}()
	}

	if *scenName != "" || *scenFile != "" {
		runScenario(*scenName, *scenFile, *seed, *scale, *workers)
		return
	}

	// 1. Topology (CAIDA as-rel).
	graph := astopo.NewGraph()
	mustOpen(*dataDir, "as-rel.txt", func(f *os.File) error { return graph.ReadASRel(f) })

	// 2. RPKI VRPs.
	var rpkiIx *rov.Index
	mustOpen(*dataDir, "vrps.csv", func(f *os.File) error {
		vrps, err := rpki.ReadVRPCSV(f)
		if err != nil {
			return err
		}
		rpkiIx, err = rpki.BuildIndex(vrps)
		if err != nil {
			return err
		}
		fmt.Printf("loaded %d VRPs\n", len(vrps))
		return nil
	})

	// 3. IRR snapshots.
	registry := irr.NewRegistry()
	matches, err := filepath.Glob(filepath.Join(*dataDir, "irr-*.db"))
	if err != nil || len(matches) == 0 {
		log.Fatalf("no IRR dumps found in %s", *dataDir)
	}
	for _, path := range matches {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "irr-"), ".db")
		db := irr.NewDatabase(name)
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := db.Load(f); err != nil {
			log.Fatalf("load %s: %v", path, err)
		}
		f.Close()
		registry.AddDatabase(db)
	}
	fmt.Printf("loaded %d IRR route objects from %d databases\n", registry.NumRoutes(), len(matches))

	// 3b. PeeringDB contact snapshot (Action 3), when present.
	contacts := peeringdb.NewRegistry()
	if f, err := os.Open(filepath.Join(*dataDir, "peeringdb.json")); err == nil {
		n, err := contacts.ReadJSON(f)
		f.Close()
		if err != nil {
			log.Fatalf("peeringdb.json: %v", err)
		}
		fmt.Printf("loaded %d contact records\n", n)
	}

	// 4. Participant list.
	participants := loadParticipants(filepath.Join(*dataDir, "manrs-participants.csv"))
	fmt.Printf("loaded %d MANRS participants\n", len(participants))

	// 5. BGP view (MRT RIB) → IHR datasets → per-AS metrics.
	var dump *mrt.Dump
	mustOpen(*dataDir, "rib.mrt", func(f *os.File) error {
		br := bufio.NewReaderSize(f, 1<<20)
		var err error
		dump, err = mrt.NewReader(br).ReadAll()
		return err
	})
	fmt.Printf("loaded RIB: %d peers, %d records\n\n", len(dump.Peers), len(dump.Records))

	irrIx, err := registry.Index()
	if err != nil {
		log.Printf("warning: some IRR objects not indexable: %v", err)
	}
	ds, err := ihr.FromMRT(dump, graph, rpkiIx, irrIx, 0)
	if err != nil {
		log.Fatal(err)
	}
	metrics := manrs.ComputeMetrics(ds)

	// 6. Audit.
	sort.Slice(participants, func(i, j int) bool { return participants[i].ASN < participants[j].ASN })
	audited, unconf := 0, 0
	for _, part := range participants {
		if *asnFlag != 0 && part.ASN != uint32(*asnFlag) {
			continue
		}
		m := metrics[part.ASN]
		a4 := manrs.Action4Conformant(m, part.Program)
		a1 := manrs.Action1Conformant(m)
		a3 := contacts.Len() == 0 || contacts.Action3Conformant(part.ASN, asOf, 0)
		audited++
		if !a4 || !a1 || !a3 {
			unconf++
		} else if *unconfOnly {
			continue
		}
		printRow(part, m, a4, a1, a3)
	}
	fmt.Printf("\naudited %d participants, %d unconformant\n", audited, unconf)
}

// runScenario is the -scenario mode: generate a world, inject the
// adversarial scenario into a copy-on-write fork, and print the
// measured degradation vs the untouched baseline.
func runScenario(name, file string, seed int64, scale string, workers int) {
	if name == "list" {
		for _, n := range manrsmeter.ScenarioNames() {
			fmt.Println(n)
		}
		return
	}
	cfg := manrsmeter.DefaultConfig(seed)
	if scale == "large" {
		cfg = manrsmeter.LargeConfig(seed)
	} else if scale != "seed" {
		log.Fatalf("bad -scale %q: want seed or large", scale)
	}
	log.Printf("generating world (seed %d, scale %s)", seed, scale)
	world, err := manrsmeter.GenerateWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	var sc *manrsmeter.Scenario
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			log.Fatal(err)
		}
		if sc, err = manrsmeter.DecodeScenario(data); err != nil {
			log.Fatal(err)
		}
	} else {
		if sc, err = manrsmeter.BuiltinScenario(ctx, name, world, time.Time{}); err != nil {
			log.Fatal(err)
		}
	}

	res, err := manrsmeter.RunScenario(ctx, world, sc,
		manrsmeter.ScenarioOptions{Workers: workers})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Render())
}

func mustOpen(dir, name string, fn func(*os.File) error) {
	path := filepath.Join(dir, name)
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		log.Fatalf("%s: %v", path, err)
	}
}

func loadParticipants(path string) []manrs.Participant {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	var out []manrs.Participant
	sc := bufio.NewScanner(f)
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if first || line == "" {
			first = false
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) < 4 {
			log.Fatalf("bad participant line %q", line)
		}
		asn, err := strconv.ParseUint(strings.TrimPrefix(fields[0], "AS"), 10, 32)
		if err != nil {
			log.Fatalf("bad ASN %q", fields[0])
		}
		prog := manrs.ProgramISP
		if fields[2] == "CDN" {
			prog = manrs.ProgramCDN
		}
		joined, err := time.Parse("2006-01-02", fields[3])
		if err != nil {
			log.Fatalf("bad join date %q", fields[3])
		}
		out = append(out, manrs.Participant{ASN: uint32(asn), OrgID: fields[1], Program: prog, Joined: joined})
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	return out
}

func printRow(part manrs.Participant, m *manrs.ASMetrics, a4, a1, a3 bool) {
	status := func(ok bool) string {
		if ok {
			return "PASS"
		}
		return "FAIL"
	}
	originated, og := 0, "n/a"
	propagated, pg := 0, "n/a"
	if m != nil {
		originated = m.Originated
		propagated = m.PropCustomer
		if m.Originated > 0 && !math.IsNaN(m.OGConformant()) {
			og = fmt.Sprintf("%.1f%%", m.OGConformant())
		}
		if m.PropCustomer > 0 && !math.IsNaN(m.PGUnconformant()) {
			pg = fmt.Sprintf("%.1f%%", m.PGUnconformant())
		}
	}
	fmt.Printf("AS%-7d %-4s joined %s  A4[%s] %3d prefixes, %s conformant  A1[%s] %d customer routes, %s unconformant  A3[%s]\n",
		part.ASN, part.Program, part.Joined.Format("2006-01"),
		status(a4), originated, og, status(a1), propagated, pg, status(a3))
}
