// Command rov validates routes against a VRP archive per RFC 6811.
//
// It reads a validated-ROA CSV (the RIPE archive layout, as written by
// synthgen or internal/rpki.WriteVRPCSV) and classifies routes given
// either on the command line ("prefix,asn" pairs) or on stdin (one
// "prefix asn" pair per line).
//
// Usage:
//
//	rov -vrps vrps.csv 192.0.2.0/24,64500 10.0.0.0/8,64501
//	cat routes.txt | rov -vrps vrps.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/rpki"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rov: ")
	vrpPath := flag.String("vrps", "", "path to the validated-ROA CSV archive (required)")
	flag.Parse()
	if *vrpPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*vrpPath)
	if err != nil {
		log.Fatal(err)
	}
	vrps, err := rpki.ReadVRPCSV(f)
	f.Close()
	if err != nil {
		log.Fatalf("read VRPs: %v", err)
	}
	ix, err := rpki.BuildIndex(vrps)
	if err != nil {
		log.Fatalf("index VRPs: %v", err)
	}
	fmt.Printf("loaded %d VRPs\n", len(vrps))

	validate := func(spec string) {
		prefix, asn, err := parseRoute(spec)
		if err != nil {
			log.Printf("skip %q: %v", spec, err)
			return
		}
		fmt.Printf("%s AS%d → %s\n", prefix, asn, ix.Validate(prefix, asn))
	}
	if flag.NArg() > 0 {
		for _, spec := range flag.Args() {
			validate(spec)
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		validate(line)
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

func parseRoute(spec string) (netx.Prefix, uint32, error) {
	fields := strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
	if len(fields) != 2 {
		return netx.Prefix{}, 0, fmt.Errorf("want 'prefix,asn'")
	}
	prefix, err := netx.ParsePrefix(fields[0])
	if err != nil {
		return netx.Prefix{}, 0, err
	}
	asnStr := strings.TrimPrefix(strings.TrimPrefix(fields[1], "AS"), "as")
	asn, err := strconv.ParseUint(asnStr, 10, 32)
	if err != nil {
		return netx.Prefix{}, 0, fmt.Errorf("bad ASN %q", fields[1])
	}
	return prefix, uint32(asn), nil
}
