// Package collector implements a RouteViews-style BGP route collector: it
// accepts BGP-4 peerings, absorbs UPDATE streams into a multi-peer RIB,
// and exports MRT TABLE_DUMP_V2 snapshots — the artifact the measurement
// pipeline (and the real study) consumes.
//
// Connections are served through the netx.Server harness (panic
// isolation, connection caps, forced close on shutdown), and sessions
// run the RFC 4271 hold timer: a peer silent past the negotiated hold
// time is torn down with a NOTIFICATION and its routes are withdrawn
// from the RIB, so a dead feed cannot freeze stale routes into future
// snapshots. Routes from peers that disconnect cleanly are retained —
// the last-known-RIB behavior of an archival collector.
package collector

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"sort"
	"sync"
	"time"

	"manrsmeter/internal/bgp"
	"manrsmeter/internal/bgp/mrt"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/obsv"
)

// Collector metrics: peer session lifecycle, route churn absorbed into
// the RIB, and MRT snapshot output (its bytes move on every dump). Dead
// feeds (hold-timer expiries followed by withdrawals) and dump
// anomalies (skipped routes) are the failure modes the paper's
// longitudinal collection cares about.
var (
	mPeerSessions = obsv.NewCounter("collector_peer_sessions_total",
		"BGP peer sessions that completed the handshake")
	mPeersActive = obsv.NewGauge("collector_peers_active",
		"peer sessions currently established")
	mRoutesReceived = obsv.NewCounter("collector_routes_received_total",
		"prefixes announced across all UPDATE messages")
	mRoutesWithdrawn = obsv.NewCounter("collector_routes_withdrawn_total",
		"prefixes withdrawn across all UPDATE messages")
	mHoldExpired = obsv.NewCounter("collector_hold_expired_total",
		"peer sessions torn down by the hold timer (routes withdrawn)")
	mMRTBytes = obsv.NewCounter("collector_mrt_bytes_written_total",
		"bytes of MRT snapshot output written")
	mMRTSkipped = obsv.NewCounter("collector_mrt_routes_skipped_total",
		"routes skipped by DumpMRT because their peer registered mid-dump")
)

// Collector accepts peerings and accumulates routes. Create with New.
type Collector struct {
	cfg       bgp.Config
	handshake time.Duration

	mu    sync.Mutex
	peers map[uint32]netip.Addr // peer ASN → peer address
	rib   *bgp.RIB

	srv *netx.Server
}

// Option customizes a Collector.
type Option func(*Collector)

// WithHoldTime sets the hold time advertised to peers (and therefore an
// upper bound on the negotiated value). Zero keeps the 90s default.
func WithHoldTime(d time.Duration) Option {
	return func(c *Collector) { c.cfg.HoldTime = d }
}

// WithHandshakeTimeout bounds the OPEN/KEEPALIVE exchange (default 10s).
func WithHandshakeTimeout(d time.Duration) Option {
	return func(c *Collector) { c.handshake = d }
}

// WithMaxPeers caps concurrent peer connections; excess connections are
// refused at accept time. Zero means unlimited.
func WithMaxPeers(n int) Option {
	return func(c *Collector) { c.srv.MaxConns = n }
}

// New returns a collector identifying as asn.
func New(asn uint32, bgpID [4]byte, opts ...Option) *Collector {
	c := &Collector{
		cfg:       bgp.Config{ASN: asn, BGPID: bgpID},
		handshake: 10 * time.Second,
		peers:     make(map[uint32]netip.Addr),
		rib:       bgp.NewRIB(),
	}
	c.srv = &netx.Server{Handler: c.servePeer}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// RIB exposes the live RIB (safe for concurrent reads).
func (c *Collector) RIB() *bgp.RIB { return c.rib }

// NumPeers returns the number of peers that completed the handshake.
func (c *Collector) NumPeers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.peers)
}

// Listen starts accepting peers on addr and returns the bound address.
func (c *Collector) Listen(addr string) (net.Addr, error) {
	return c.srv.Listen(addr)
}

// Serve accepts peers from an existing listener (chaos tests inject
// fault-wrapped listeners here). It returns once accepting has started.
func (c *Collector) Serve(ln net.Listener) error {
	return c.srv.Serve(ln)
}

// peerAddr extracts the remote address of a peer connection, IPv4 or
// IPv6. Transports without an IP remote (in-memory pipes) yield the
// unspecified IPv4 address.
func peerAddr(conn net.Conn) netip.Addr {
	ra := conn.RemoteAddr()
	if ra == nil {
		return netip.IPv4Unspecified()
	}
	if tcp, ok := ra.(*net.TCPAddr); ok {
		if a, ok := netip.AddrFromSlice(tcp.IP); ok {
			return a.Unmap()
		}
	}
	if ap, err := netip.ParseAddrPort(ra.String()); err == nil {
		return ap.Addr().Unmap()
	}
	return netip.IPv4Unspecified()
}

func (c *Collector) servePeer(ctx context.Context, conn net.Conn) {
	sess, err := bgp.Establish(conn, c.cfg, c.handshake)
	if err != nil {
		return // harness closes the conn
	}
	defer sess.Close()
	// A peering never ends on its own: Shutdown, which cancels ctx, ends
	// it with a Cease, and the peer keeps its routes as on any clean
	// disconnect.
	defer context.AfterFunc(ctx, func() { sess.Close() })()

	// Keep our side of the hold timer fed.
	stopKeepalives := sess.StartKeepalives(0)
	defer stopKeepalives()

	c.mu.Lock()
	c.peers[sess.PeerASN()] = peerAddr(conn)
	c.mu.Unlock()
	mPeerSessions.Inc()
	mPeersActive.Inc()
	defer mPeersActive.Dec()

	for {
		update, err := sess.Recv()
		if err != nil {
			if errors.Is(err, bgp.ErrHoldTimerExpired) {
				// Dead feed: its routes are stale, withdraw them. The
				// peer stays in the peer table so earlier dumps remain
				// attributable.
				mHoldExpired.Inc()
				mRoutesWithdrawn.Add(int64(c.rib.RemovePeer(sess.PeerASN())))
			}
			return // otherwise routes learned so far stay (archival RIB)
		}
		mRoutesReceived.Add(int64(len(update.NLRI) + len(update.MPReach)))
		mRoutesWithdrawn.Add(int64(len(update.Withdrawn) + len(update.MPUnreach)))
		c.rib.Apply(sess.PeerASN(), update)
	}
}

// Close stops accepting, terminates peer sessions (including any still
// in the handshake), and waits for their goroutines to finish.
func (c *Collector) Close() error {
	return c.srv.Close()
}

// Shutdown stops accepting, ends every established peering with a
// Cease NOTIFICATION and waits for the sessions to wind down,
// force-closing whatever remains (a peer still in the handshake) when
// ctx expires. The departed peers' routes stay in the RIB, as with
// Close.
func (c *Collector) Shutdown(ctx context.Context) error {
	return c.srv.Shutdown(ctx)
}

// DumpMRT writes the current RIB as a TABLE_DUMP_V2 snapshot stamped ts.
// Peers may register and announce concurrently with a dump; routes whose
// peer is not in this dump's peer table are skipped and counted (in
// collector_mrt_routes_skipped_total) rather than aborting the snapshot —
// they appear in the next dump.
func (c *Collector) DumpMRT(w interface{ Write([]byte) (int, error) }, ts time.Time) error {
	c.mu.Lock()
	peerASNs := make([]uint32, 0, len(c.peers))
	for asn := range c.peers {
		peerASNs = append(peerASNs, asn)
	}
	sort.Slice(peerASNs, func(i, j int) bool { return peerASNs[i] < peerASNs[j] })
	peers := make([]mrt.Peer, len(peerASNs))
	peerIdx := make(map[uint32]uint16, len(peerASNs))
	for i, asn := range peerASNs {
		peers[i] = mrt.Peer{
			BGPID: [4]byte{byte(asn >> 24), byte(asn >> 16), byte(asn >> 8), byte(asn)},
			Addr:  c.peers[asn],
			ASN:   asn,
		}
		peerIdx[asn] = uint16(i)
	}
	c.mu.Unlock()

	// Group RIB routes by prefix.
	byPrefix := make(map[netx.Prefix][]bgp.Route)
	var order []netx.Prefix
	c.rib.Walk(func(r bgp.Route) bool {
		if _, ok := byPrefix[r.Prefix]; !ok {
			order = append(order, r.Prefix)
		}
		byPrefix[r.Prefix] = append(byPrefix[r.Prefix], r)
		return true
	})
	sort.Slice(order, func(i, j int) bool { return order[i].Compare(order[j]) < 0 })

	cw := &countingWriter{w: w}
	defer func() { mMRTBytes.Add(cw.n) }()
	mw := mrt.NewWriter(cw, ts)
	if err := mw.WritePeerIndexTable(c.cfg.BGPID, "collector-rib", peers); err != nil {
		return err
	}
	for _, prefix := range order {
		routes := byPrefix[prefix]
		sort.Slice(routes, func(i, j int) bool { return routes[i].PeerASN < routes[j].PeerASN })
		entries := make([]mrt.RIBEntry, 0, len(routes))
		for _, r := range routes {
			idx, ok := peerIdx[r.PeerASN]
			if !ok {
				mMRTSkipped.Inc()
				continue
			}
			entries = append(entries, mrt.RIBEntry{
				PeerIndex:      idx,
				OriginatedTime: ts,
				Path:           r.Path,
			})
		}
		if len(entries) == 0 {
			continue
		}
		if err := mw.WriteRIB(prefix, entries); err != nil {
			return err
		}
	}
	return nil
}

// countingWriter tallies bytes written through it for the MRT output
// counter.
type countingWriter struct {
	w interface{ Write([]byte) (int, error) }
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
