package rtr

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/rpki"
)

// RTR cache metrics: live sessions and the query mix. A relying party
// stuck in Cache Reset loops is visible here without attaching a
// debugger. Accepted sessions are netx_server_conns_total; the serial
// and VRP count being served are rtrd's /healthz detail.
var (
	mSessionsActive = obsv.NewGauge("rtr_sessions_active",
		"RTR client sessions currently connected")
	mResetQueries = obsv.NewCounter("rtr_queries_total",
		"RTR queries served by type", "type", "reset")
	mSerialQueries = obsv.NewCounter("rtr_queries_total",
		"RTR queries served by type", "type", "serial")
	mCacheResets = obsv.NewCounter("rtr_cache_resets_total",
		"Serial Queries answered with Cache Reset (serial too old)")
)

// DefaultIdleTimeout disconnects RTR clients that send no query for
// this long; relying parties poll far more often (RFC 8210 suggests
// refresh intervals of minutes).
const DefaultIdleTimeout = 5 * time.Minute

// Server serves a VRP snapshot to RTR clients. The snapshot can be
// swapped at runtime (a relying-party refresh); clients that issue a
// Serial Query receive the delta from a retained serial, or Cache Reset
// and re-fetch when theirs is too old. Connections run on the netx.Server
// harness: idle clients are disconnected, a malformed query costs only
// its own connection, and Close force-closes live sessions.
type Server struct {
	mu      sync.RWMutex
	vrps    []rpki.VRP
	serial  uint32
	session uint16
	// history retains recent snapshots so Serial Queries can be answered
	// with deltas instead of a Cache Reset.
	history []snapshotRecord

	srv *netx.Server
}

// NewServer returns a server with an initial snapshot.
func NewServer(vrps []rpki.VRP) *Server {
	s := &Server{
		vrps:    append([]rpki.VRP(nil), vrps...),
		serial:  1,
		session: 0x5249, // "RI"
	}
	s.srv = &netx.Server{
		ReadTimeout:  DefaultIdleTimeout,
		WriteTimeout: 30 * time.Second,
		Handler: func(ctx context.Context, conn net.Conn) {
			// A drain cancels ctx: close the session rather than wait
			// out an idle router's read deadline.
			defer context.AfterFunc(ctx, func() { conn.Close() })()
			_ = s.serve(conn)
		},
	}
	return s
}

// SetIdleTimeout overrides the per-read idle deadline; call before
// Listen/Serve. Zero disables it.
func (s *Server) SetIdleTimeout(d time.Duration) { s.srv.ReadTimeout = d }

// SetVRPs replaces the snapshot and bumps the serial. The previous
// snapshot is retained (up to maxHistory) for incremental Serial Query
// answers.
func (s *Server) SetVRPs(vrps []rpki.VRP) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.history = append(s.history, snapshotRecord{serial: s.serial, set: vrpSet(s.vrps)})
	if len(s.history) > maxHistory {
		s.history = s.history[len(s.history)-maxHistory:]
	}
	s.vrps = append([]rpki.VRP(nil), vrps...)
	s.serial++
}

// Serial returns the current snapshot serial.
func (s *Server) Serial() uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.serial
}

// Listen starts accepting RTR clients on addr ("127.0.0.1:0" for an
// ephemeral port) and returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	return s.srv.Listen(addr)
}

// Serve accepts RTR clients from an existing listener.
func (s *Server) Serve(ln net.Listener) error {
	return s.srv.Serve(ln)
}

// Close stops the listener and force-closes active sessions.
func (s *Server) Close() error {
	return s.srv.Close()
}

// Shutdown stops the listener and waits for in-flight sessions to
// finish, force-closing whatever remains when ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.srv.Shutdown(ctx)
}

// serve handles one client connection: each query gets its response;
// unknown PDUs get an Error Report and the connection ends.
func (s *Server) serve(conn net.Conn) error {
	mSessionsActive.Inc()
	defer mSessionsActive.Dec()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		pdu, err := Read(br)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		switch pdu.Type {
		case TypeResetQuery:
			mResetQueries.Inc()
			if err := s.sendSnapshot(bw); err != nil {
				return err
			}
		case TypeSerialQuery:
			mSerialQueries.Inc()
			ok, err := s.sendDelta(bw, pdu.Serial)
			if err != nil {
				return err
			}
			if !ok {
				mCacheResets.Inc()
				// Serial too old (or never known): tell the client to reset.
				reset := &PDU{Version: Version, Type: TypeCacheReset}
				if err := reset.Write(bw); err != nil {
					return err
				}
				if err := bw.Flush(); err != nil {
					return err
				}
			}
		default:
			errPDU := &PDU{
				Version: Version,
				Type:    TypeErrorReport,
				Session: ErrUnsupportedPDU,
				Text:    fmt.Sprintf("unsupported PDU type %d", pdu.Type),
			}
			if err := errPDU.Write(bw); err != nil {
				return err
			}
			return bw.Flush()
		}
	}
}

func (s *Server) sendSnapshot(bw *bufio.Writer) error {
	s.mu.RLock()
	vrps := s.vrps
	serial := s.serial
	session := s.session
	s.mu.RUnlock()

	resp := &PDU{Version: Version, Type: TypeCacheResponse, Session: session}
	if err := resp.Write(bw); err != nil {
		return err
	}
	for _, v := range vrps {
		if err := VRPToPDU(v).Write(bw); err != nil {
			return err
		}
	}
	eod := &PDU{Version: Version, Type: TypeEndOfData, Session: session, Serial: serial}
	if err := eod.Write(bw); err != nil {
		return err
	}
	return bw.Flush()
}
