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
	"io"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"manrsmeter"
	"manrsmeter/internal/astopo"
	"manrsmeter/internal/bgp/mrt"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/rpki"
	"manrsmeter/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("synthgen: ")
	seed := flag.Int64("seed", 1, "generator seed")
	scale := flag.String("scale", "small", "world scale: small | full | large (internet-scale, ~75k ASes / ~1M prefixes)")
	out := flag.String("out", "synth-data", "output directory")
	scenName := flag.String("scenario", "", "inject a builtin adversarial scenario before writing archives (as0-hijack, expired-certs, rp-failure, anchor-pairs, roa-delay)")
	scenFile := flag.String("scenario-file", "", "inject a scenario decoded from this file (text or JSON encoding)")
	flag.Parse()

	cfg := manrsmeter.DefaultConfig(*seed)
	switch *scale {
	case "small", "seed":
		cfg.Tier1s, cfg.LargeISPs, cfg.MediumISPs, cfg.SmallASes, cfg.CDNs = 3, 3, 60, 700, 8
		cfg.MANRSSmall, cfg.MANRSMedium, cfg.MANRSLarge, cfg.MANRSCDNs = 70, 20, 3, 4
	case "full":
	case "large":
		cfg = manrsmeter.LargeConfig(*seed)
	default:
		log.Fatalf("unknown -scale %q (want small, full, or large)", *scale)
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
		// (manrs-audit) see the degraded world.
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
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	write := func(name string, fn func(w io.Writer) error) {
		if err := ctx.Err(); err != nil {
			log.Fatalf("canceled before %s: %v", name, err)
		}
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := fn(f); err != nil {
			f.Close()
			log.Fatalf("write %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("close %s: %v", path, err)
		}
		fmt.Println("wrote", path)
	}

	asOf := world.Date(cfg.EndYear)
	world.SetSnapshot(asOf)

	write("as-rel.txt", world.Graph.WriteASRel)
	write("as2org.txt", world.Graph.WriteAS2Org)
	write("prefix2as.txt", world.Graph.WritePrefix2AS)

	// One view of the date feeds vrps.csv, the IHR dataset and the MRT
	// writer's filters.
	view, err := world.At(ctx, asOf, 0)
	if err != nil {
		log.Fatalf("relying party: %v", err)
	}
	write("vrps.csv", func(f io.Writer) error { return rpki.WriteVRPCSV(f, view.VRPs) })

	for _, db := range world.IRRRegistry.Databases() {
		db := db
		write(fmt.Sprintf("irr-%s.db", db.Name), db.Dump)
	}

	write("manrs-participants.csv", func(f io.Writer) error {
		if _, err := fmt.Fprintln(f, "asn,org,program,joined"); err != nil {
			return err
		}
		for _, p := range world.MANRS.Members(asOf) {
			if _, err := fmt.Fprintf(f, "AS%d,%s,%s,%s\n", p.ASN, p.OrgID, p.Program, p.Joined.Format("2006-01-02")); err != nil {
				return err
			}
		}
		return nil
	})

	write("peeringdb.json", world.PeeringDB.WriteJSON)

	ds, err := view.Dataset(ctx, 0)
	if err != nil {
		log.Fatalf("build IHR dataset: %v", err)
	}
	write("ihr-prefix-origins.csv", ds.WritePrefixOriginCSV)
	write("ihr-transits.csv", ds.WriteTransitCSV)

	write("rib.mrt", func(f io.Writer) error { return writeMRT(f, world, view, ds) })
}

// writeMRT dumps the simulated collector's view: one RIB entry per
// (prefix, vantage point that sees it), exactly how RouteViews archives
// look.
func writeMRT(f io.Writer, world *synth.World, view *synth.View, ds *ihr.Dataset) error {
	filterFor := ihr.PolicyFilter(world.Graph, world.Policies, view.RPKI, view.IRR)
	w := mrt.NewWriter(f, view.Date)
	peers := make([]mrt.Peer, len(world.VantagePoints))
	csr := world.Graph.CSR()
	var vpIdx []int32   // vantage points present in the topology
	var vpPeer []uint16 // and their rows in the peer index table
	for i, asn := range world.VantagePoints {
		if vi, ok := csr.Intern.Index(asn); ok {
			vpIdx = append(vpIdx, vi)
			vpPeer = append(vpPeer, uint16(i))
		}
		peers[i] = mrt.Peer{
			BGPID: [4]byte{10, 0, byte(i >> 8), byte(i)},
			Addr:  netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
			ASN:   asn,
		}
	}
	if err := w.WritePeerIndexTable([4]byte{192, 0, 2, 1}, "manrsmeter-rib", peers); err != nil {
		return err
	}
	// Recompute vantage paths per visible prefix-origin, under the same
	// filtering policies the dataset builder applied. Only the vantage
	// points are read, so the floods are restricted to their need-set.
	prop := astopo.NewCSRPropagator(csr)
	need := csr.NeedSet(vpIdx)
	for _, po := range ds.PrefixOrigins {
		tree := prop.PropagateTo(po.Prefix, po.Origin, filterFor(po.Prefix, po.Origin), need)
		var entries []mrt.RIBEntry
		for i, vi := range vpIdx {
			path := tree.AppendPathAt(nil, vi)
			if path == nil {
				continue
			}
			entries = append(entries, mrt.RIBEntry{
				PeerIndex:      vpPeer[i],
				OriginatedTime: view.Date,
				Path:           path,
			})
		}
		if len(entries) == 0 {
			continue
		}
		if err := w.WriteRIB(po.Prefix, entries); err != nil {
			return err
		}
	}
	return nil
}
