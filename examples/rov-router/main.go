// ROV router end to end: a router fetches validated ROA payloads from an
// RTR cache (RFC 8210), peers with a neighbor over BGP-4, and drops
// RPKI-invalid announcements at import — the operational loop behind the
// paper's Action 1. A second act shows an incremental RTR update (a new
// ROA appears) flipping a previously-dropped route to accepted.
//
// Run with:
//
//	go run ./examples/rov-router
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/netip"
	"time"

	"manrsmeter/internal/bgp"
	"manrsmeter/internal/bgp/wire"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpki"
	"manrsmeter/internal/rpki/rtr"
)

func main() {
	log.SetFlags(0)

	// The RPKI side: a cache serving one VRP (the victim's prefix).
	cache := rtr.NewServer([]rpki.VRP{
		{Prefix: netx.MustParsePrefix("203.0.113.0/24"), ASN: 64500, MaxLength: 24},
	})
	cacheAddr, err := cache.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer cache.Close()

	// A router bounds every exchange with its cache: a cache that stops
	// answering costs a refresh, never a hung control plane.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	snapshot, err := rtr.Fetch(ctx, cacheAddr.String())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("router: fetched %d VRPs from RTR cache (serial %d)\n", len(snapshot.VRPs), snapshot.Serial)

	// The BGP side: the neighbor announces three routes; the router
	// validates each against the RTR-fed index.
	routes := []struct {
		prefix netx.Prefix
		origin uint32
	}{
		{netx.MustParsePrefix("203.0.113.0/24"), 64500},  // valid
		{netx.MustParsePrefix("203.0.113.0/24"), 64666},  // hijack
		{netx.MustParsePrefix("198.51.100.0/24"), 64501}, // not found
	}
	decide := func(ix *rov.Index, prefix netx.Prefix, origin uint32) string {
		status := ix.Validate(prefix, origin)
		if status.IsInvalid() {
			return fmt.Sprintf("%s → DROP", status)
		}
		return fmt.Sprintf("%s → accept", status)
	}

	runSession(routes, snapshot, decide)

	// Act two: the prefix holder authorizes a second origin (say, an
	// anycast deployment through AS64666). The cache refreshes, the
	// router applies the incremental delta, and the previously-dropped
	// announcement becomes Valid.
	cache.SetVRPs([]rpki.VRP{
		{Prefix: netx.MustParsePrefix("203.0.113.0/24"), ASN: 64500, MaxLength: 24},
		{Prefix: netx.MustParsePrefix("203.0.113.0/24"), ASN: 64666, MaxLength: 24},
	})
	updated, err := rtr.Update(ctx, cacheAddr.String(), snapshot)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrouter: incremental RTR update → serial %d, %d VRPs\n", updated.Serial, len(updated.VRPs))
	ix := mustIndex(updated.VRPs)
	fmt.Printf("router: 203.0.113.0/24 from AS64666 now: %s\n",
		decide(ix, netx.MustParsePrefix("203.0.113.0/24"), 64666))
}

func mustIndex(vrps []rpki.VRP) *rov.Index {
	ix, err := rpki.BuildIndex(vrps)
	if err != nil {
		log.Fatal(err)
	}
	return ix
}

// runSession announces the routes over a real BGP session and prints the
// router's per-route ROV decision.
func runSession(routes []struct {
	prefix netx.Prefix
	origin uint32
}, snapshot *rtr.FetchResult, decide func(*rov.Index, netx.Prefix, uint32) string) {
	ix := mustIndex(snapshot.VRPs)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()

	done := make(chan struct{})
	go func() { // the router side
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		sess, err := bgp.Establish(conn, bgp.Config{ASN: 65000, BGPID: [4]byte{10, 0, 0, 1}}, 5*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		defer sess.Close()
		for range routes {
			u, err := sess.Recv()
			if err != nil {
				log.Fatal(err)
			}
			origin, _ := u.OriginAS()
			for _, p := range u.NLRI {
				fmt.Printf("router: %s from AS%d: %s\n", p, origin, decide(ix, p, origin))
			}
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	neighbor, err := bgp.Establish(conn, bgp.Config{ASN: 64999, BGPID: [4]byte{10, 0, 0, 2}}, 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer neighbor.Close()
	for _, r := range routes {
		err := neighbor.SendUpdate(&wire.Update{
			Origin:  wire.OriginIGP,
			ASPath:  []wire.ASPathSegment{{Type: wire.ASSequence, ASNs: []uint32{64999, r.origin}}},
			NextHop: netip.MustParseAddr("192.0.2.1"),
			NLRI:    []netx.Prefix{r.prefix},
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	<-done
}
