// Command hegemony computes AS hegemony scores from an MRT TABLE_DUMP_V2
// RIB snapshot (as written by synthgen or fetched from a route
// collector): for each prefix, the trimmed-mean fraction of peer paths
// crossing each transit AS.
//
// Usage:
//
//	hegemony -rib rib.mrt [-prefix 192.0.2.0/24] [-top N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"manrsmeter/internal/bgp/mrt"
	"manrsmeter/internal/hegemony"
	"manrsmeter/internal/netx"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hegemony: ")
	ribPath := flag.String("rib", "", "path to an MRT TABLE_DUMP_V2 file (required)")
	prefixArg := flag.String("prefix", "", "only report this prefix")
	top := flag.Int("top", 5, "transit ASes to print per prefix")
	trim := flag.Float64("trim", hegemony.DefaultTrim, "trimming fraction")
	flag.Parse()
	if *ribPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*ribPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	dump, err := mrt.NewReader(f).ReadAll()
	if err != nil {
		log.Fatalf("read MRT: %v", err)
	}
	fmt.Printf("collector %q: %d peers, %d RIB records\n", dump.ViewName, len(dump.Peers), len(dump.Records))

	var only netx.Prefix
	if *prefixArg != "" {
		only, err = netx.ParsePrefix(*prefixArg)
		if err != nil {
			log.Fatal(err)
		}
	}
	records := dump.Records
	sort.Slice(records, func(i, j int) bool { return records[i].Prefix.Compare(records[j].Prefix) < 0 })
	for _, rec := range records {
		if only.IsValid() && rec.Prefix != only {
			continue
		}
		// Each RIB entry is one peer's path; hegemony treats the peer AS
		// as the vantage point (paths in the dump already start there).
		paths := make([][]uint32, 0, len(rec.Entries))
		for _, e := range rec.Entries {
			paths = append(paths, e.Path)
		}
		scores := hegemony.Ranked(hegemony.Scores(paths, *trim))
		fmt.Printf("%s (%d paths):", rec.Prefix, len(paths))
		for i, s := range scores {
			if i >= *top {
				break
			}
			fmt.Printf(" AS%d=%.2f", s.ASN, s.Hegemony)
		}
		fmt.Println()
	}
}
