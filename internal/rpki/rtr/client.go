package rtr

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sort"

	"manrsmeter/internal/rpki"
)

// FetchResult is a completed snapshot fetch.
type FetchResult struct {
	VRPs    []rpki.VRP
	Serial  uint32
	Session uint16
}

// Fetch dials the RTR cache at addr, performs a Reset Query exchange, and
// returns the full VRP snapshot in the order the cache sent it. ctx
// bounds the whole exchange, as for Update.
func Fetch(ctx context.Context, addr string) (*FetchResult, error) {
	return Update(ctx, addr, nil)
}

// Update performs an incremental refresh against the cache at addr: a
// Serial Query from prior's serial, applying announce/withdraw deltas to
// prior's VRP set. When the cache answers Cache Reset (serial too old,
// or the cache keeps no history), it falls back to a full Reset Query
// on the same connection; a nil prior is a plain Fetch. The returned
// result is always complete: a broken or truncated answer is an error,
// never a partial set.
//
// ctx bounds the exchange: it is used to dial, and the connection is
// closed the moment ctx is done (its deadline passes or it is
// cancelled), so a cache that accepts and never answers costs no more
// than ctx allows. An exchange cut short by ctx returns an error
// wrapping ctx's.
func Update(ctx context.Context, addr string, prior *FetchResult) (*FetchResult, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	defer context.AfterFunc(ctx, func() { conn.Close() })()
	res, err := exchange(conn, prior)
	if err != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("rtr: exchange with %s: %w", addr, ctx.Err())
	}
	return res, err
}

// exchange runs the query/response dialogue over conn: a Serial Query
// from prior when there is one, and a Reset Query when there is not or
// the cache answers Cache Reset.
func exchange(conn net.Conn, prior *FetchResult) (*FetchResult, error) {
	br := bufio.NewReader(conn)
	if prior != nil {
		first, err := query(conn, br, &PDU{Version: Version, Type: TypeSerialQuery, Session: prior.Session, Serial: prior.Serial})
		if err != nil {
			return nil, err
		}
		switch first.Type {
		case TypeCacheResponse:
			return readPayload(br, first.Session, prior)
		case TypeCacheReset:
			// fall through to the Reset Query
		default:
			return nil, fmt.Errorf("rtr: expected Cache Response or Cache Reset, got type %d", first.Type)
		}
	}
	first, err := query(conn, br, &PDU{Version: Version, Type: TypeResetQuery})
	if err != nil {
		return nil, err
	}
	if first.Type != TypeCacheResponse {
		return nil, fmt.Errorf("rtr: expected Cache Response, got type %d", first.Type)
	}
	return readPayload(br, first.Session, nil)
}

// query sends q and reads the first PDU of the answer; an Error Report
// is returned as an error.
func query(conn net.Conn, br *bufio.Reader, q *PDU) (*PDU, error) {
	bw := bufio.NewWriter(conn)
	if err := q.Write(bw); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	first, err := Read(br)
	if err != nil {
		return nil, err
	}
	if first.Type == TypeErrorReport {
		return nil, fmt.Errorf("rtr: cache error %d: %s", first.Session, first.Text)
	}
	return first, nil
}

// readPayload reads the prefix PDUs after a Cache Response up to End of
// Data. With a nil prior they are a full snapshot, kept in the order
// sent, and a withdrawal is an error; otherwise they are a delta applied
// to prior's set, and the result is sorted.
func readPayload(br *bufio.Reader, session uint16, prior *FetchResult) (*FetchResult, error) {
	res := &FetchResult{Session: session}
	var set map[rpki.VRP]struct{}
	if prior != nil {
		set = vrpSet(prior.VRPs)
	}
	for {
		pdu, err := Read(br)
		if err != nil {
			return nil, err
		}
		switch pdu.Type {
		case TypeIPv4Prefix, TypeIPv6Prefix:
			v, err := PDUToVRP(pdu)
			if err != nil {
				return nil, err
			}
			announce := pdu.Flags&FlagAnnounce != 0
			switch {
			case set == nil && !announce:
				return nil, fmt.Errorf("rtr: withdrawal inside snapshot")
			case set == nil:
				res.VRPs = append(res.VRPs, v)
			case announce:
				set[v] = struct{}{}
			default:
				delete(set, v)
			}
		case TypeEndOfData:
			res.Serial = pdu.Serial
			if set != nil {
				res.VRPs = make([]rpki.VRP, 0, len(set))
				for v := range set {
					res.VRPs = append(res.VRPs, v)
				}
				sortVRPs(res.VRPs)
			}
			return res, nil
		case TypeErrorReport:
			return nil, fmt.Errorf("rtr: cache error %d: %s", pdu.Session, pdu.Text)
		default:
			return nil, fmt.Errorf("rtr: unexpected PDU type %d after Cache Response", pdu.Type)
		}
	}
}

func sortVRPs(vrps []rpki.VRP) {
	sort.Slice(vrps, func(i, j int) bool { return lessVRP(vrps[i], vrps[j]) })
}

func lessVRP(a, b rpki.VRP) bool {
	if c := a.Prefix.Compare(b.Prefix); c != 0 {
		return c < 0
	}
	if a.ASN != b.ASN {
		return a.ASN < b.ASN
	}
	return a.MaxLength < b.MaxLength
}
