package rtr

import (
	"bufio"

	"manrsmeter/internal/rpki"
)

// maxHistory bounds how many past snapshots the server diffs against;
// clients further behind get a Cache Reset (RFC 8210 §8.4).
const maxHistory = 8

// snapshotRecord is one retained snapshot for delta computation.
type snapshotRecord struct {
	serial uint32
	set    map[rpki.VRP]struct{}
}

func vrpSet(vrps []rpki.VRP) map[rpki.VRP]struct{} {
	m := make(map[rpki.VRP]struct{}, len(vrps))
	for _, v := range vrps {
		m[v] = struct{}{}
	}
	return m
}

// historyFor returns the retained snapshot with the given serial, or nil.
func (s *Server) historyFor(serial uint32) *snapshotRecord {
	for i := range s.history {
		if s.history[i].serial == serial {
			return &s.history[i]
		}
	}
	return nil
}

// sendDelta writes the incremental response from the client's serial to
// the current snapshot: announces for added VRPs, withdraws for removed
// ones, then End of Data. Returns false when the serial is too old to
// diff (caller sends Cache Reset).
func (s *Server) sendDelta(bw *bufio.Writer, clientSerial uint32) (bool, error) {
	s.mu.RLock()
	cur := vrpSet(s.vrps)
	serial := s.serial
	session := s.session
	old := s.historyFor(clientSerial)
	s.mu.RUnlock()

	if clientSerial == serial {
		// Client is current: empty delta.
		resp := &PDU{Version: Version, Type: TypeCacheResponse, Session: session}
		if err := resp.Write(bw); err != nil {
			return true, err
		}
		eod := &PDU{Version: Version, Type: TypeEndOfData, Session: session, Serial: serial}
		if err := eod.Write(bw); err != nil {
			return true, err
		}
		return true, bw.Flush()
	}
	if old == nil {
		return false, nil
	}
	resp := &PDU{Version: Version, Type: TypeCacheResponse, Session: session}
	if err := resp.Write(bw); err != nil {
		return true, err
	}
	for v := range cur {
		if _, ok := old.set[v]; !ok {
			if err := VRPToPDU(v).Write(bw); err != nil {
				return true, err
			}
		}
	}
	for v := range old.set {
		if _, ok := cur[v]; !ok {
			p := VRPToPDU(v)
			p.Flags = 0 // withdraw
			if err := p.Write(bw); err != nil {
				return true, err
			}
		}
	}
	eod := &PDU{Version: Version, Type: TypeEndOfData, Session: session, Serial: serial}
	if err := eod.Write(bw); err != nil {
		return true, err
	}
	return true, bw.Flush()
}
