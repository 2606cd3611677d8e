// Package mrt implements the MRT export format (RFC 6396) subset used by
// RouteViews and RIPE RIS RIB archives: TABLE_DUMP_V2 with a
// PEER_INDEX_TABLE record followed by RIB_IPV4_UNICAST and
// RIB_IPV6_UNICAST records. The simulated collector writes its RIB in
// this format and the analysis pipeline reads it back, exactly as the
// paper's pipeline consumes RouteViews dumps.
package mrt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"manrsmeter/internal/bgp/wire"
	"manrsmeter/internal/netx"
)

// MRT type and subtype codes (RFC 6396 §4).
const (
	TypeTableDumpV2 = 13

	SubtypePeerIndexTable = 1
	SubtypeRIBIPv4Unicast = 2
	SubtypeRIBIPv6Unicast = 4
)

// Peer describes one collector peer in the PEER_INDEX_TABLE.
type Peer struct {
	BGPID [4]byte
	Addr  netip.Addr
	ASN   uint32
}

// RIBEntry is one path for a prefix, attributed to a peer by index.
type RIBEntry struct {
	PeerIndex      uint16
	OriginatedTime time.Time
	// Path is the flattened AS path.
	Path []uint32
}

// RIBRecord is one RIB_IPVx_UNICAST record: a prefix plus the entries
// (one per peer) the collector holds for it.
type RIBRecord struct {
	Sequence uint32
	Prefix   netx.Prefix
	Entries  []RIBEntry
}

// Writer emits a TABLE_DUMP_V2 stream: the peer table first, then RIB
// records in the order given.
type Writer struct {
	w     io.Writer
	seq   uint32
	stamp time.Time
	wrote bool
}

// NewWriter returns a Writer stamping records with ts.
func NewWriter(w io.Writer, ts time.Time) *Writer {
	return &Writer{w: w, stamp: ts}
}

func (w *Writer) writeRecord(subtype uint16, body []byte) error {
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(w.stamp.Unix()))
	binary.BigEndian.PutUint16(hdr[4:6], TypeTableDumpV2)
	binary.BigEndian.PutUint16(hdr[6:8], subtype)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(body)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(body)
	return err
}

// WritePeerIndexTable writes the PEER_INDEX_TABLE record. It must be
// called exactly once, before any RIB record.
func (w *Writer) WritePeerIndexTable(collectorID [4]byte, viewName string, peers []Peer) error {
	if w.wrote {
		return errors.New("mrt: peer index table must be the first record")
	}
	w.wrote = true
	var b []byte
	b = append(b, collectorID[:]...)
	if len(viewName) > 0xFFFF {
		return errors.New("mrt: view name too long")
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(viewName)))
	b = append(b, viewName...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(peers)))
	for _, p := range peers {
		// Peer type: bit 0 = IPv6 address, bit 1 = 4-octet ASN (always).
		ptype := byte(0x02)
		if p.Addr.Is6() && !p.Addr.Is4In6() {
			ptype |= 0x01
		}
		b = append(b, ptype)
		b = append(b, p.BGPID[:]...)
		if ptype&0x01 != 0 {
			a := p.Addr.As16()
			b = append(b, a[:]...)
		} else {
			a := p.Addr.As4()
			b = append(b, a[:]...)
		}
		b = binary.BigEndian.AppendUint32(b, p.ASN)
	}
	return w.writeRecord(SubtypePeerIndexTable, b)
}

// WriteRIB writes one RIB record for prefix with the given entries. The
// sequence number is assigned automatically.
func (w *Writer) WriteRIB(prefix netx.Prefix, entries []RIBEntry) error {
	if !w.wrote {
		return errors.New("mrt: peer index table must be written first")
	}
	subtype := uint16(SubtypeRIBIPv4Unicast)
	if prefix.Is6() {
		subtype = SubtypeRIBIPv6Unicast
	}
	var b []byte
	b = binary.BigEndian.AppendUint32(b, w.seq)
	w.seq++
	b = append(b, byte(prefix.Bits()))
	nbytes := (prefix.Bits() + 7) / 8
	if prefix.Is6() {
		a := prefix.Addr().As16()
		b = append(b, a[:nbytes]...)
	} else {
		a := prefix.Addr().As4()
		b = append(b, a[:nbytes]...)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(entries)))
	for _, e := range entries {
		b = binary.BigEndian.AppendUint16(b, e.PeerIndex)
		b = binary.BigEndian.AppendUint32(b, uint32(e.OriginatedTime.Unix()))
		attrs, err := encodePathAttrs(prefix, e.Path)
		if err != nil {
			return err
		}
		if len(attrs) > 0xFFFF {
			return errors.New("mrt: attributes too long")
		}
		b = binary.BigEndian.AppendUint16(b, uint16(len(attrs)))
		b = append(b, attrs...)
	}
	return w.writeRecord(subtype, b)
}

func encodePathAttrs(prefix netx.Prefix, path []uint32) ([]byte, error) {
	u := &wire.Update{
		Origin: wire.OriginIGP,
		ASPath: []wire.ASPathSegment{{Type: wire.ASSequence, ASNs: path}},
	}
	if prefix.Is6() {
		u.MPReach = []netx.Prefix{prefix}
		u.MPNextHop = netip.MustParseAddr("2001:db8::1")
	} else {
		u.NLRI = []netx.Prefix{prefix}
		u.NextHop = netip.AddrFrom4([4]byte{192, 0, 2, 1})
	}
	return wire.EncodeAttributes(u)
}

// Dump is a fully parsed TABLE_DUMP_V2 file.
type Dump struct {
	CollectorID [4]byte
	ViewName    string
	Peers       []Peer
	Records     []RIBRecord
	Timestamp   time.Time
}

// Reader parses TABLE_DUMP_V2 streams.
type Reader struct {
	r io.Reader
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadAll parses the whole stream into a Dump. The first record must be
// the PEER_INDEX_TABLE. An error names the record it stopped at,
// counting from 1.
func (rd *Reader) ReadAll() (*Dump, error) {
	d := &Dump{}
	for n := 1; ; n++ {
		err := rd.readInto(d, n == 1)
		if err == io.EOF {
			if n == 1 {
				return nil, errors.New("mrt: empty stream")
			}
			return d, nil
		}
		if err != nil {
			return nil, fmt.Errorf("mrt: record %d: %w", n, err)
		}
	}
}

// readInto reads one record into d: the peer index table if first, a
// RIB record otherwise.
func (rd *Reader) readInto(d *Dump, first bool) error {
	subtype, ts, body, err := rd.readRecord()
	if err != nil {
		return err
	}
	if first {
		if subtype != SubtypePeerIndexTable {
			return fmt.Errorf("subtype %d, want peer index table", subtype)
		}
		d.Timestamp = ts
		return d.parsePeerIndex(body)
	}
	switch subtype {
	case SubtypeRIBIPv4Unicast, SubtypeRIBIPv6Unicast:
		rec, err := parseRIB(body, subtype == SubtypeRIBIPv6Unicast)
		if err != nil {
			return err
		}
		if err := d.checkPeerIndexes(rec); err != nil {
			return err
		}
		d.Records = append(d.Records, rec)
		return nil
	default:
		return fmt.Errorf("unsupported subtype %d", subtype)
	}
}

func (d *Dump) checkPeerIndexes(rec RIBRecord) error {
	for _, e := range rec.Entries {
		if int(e.PeerIndex) >= len(d.Peers) {
			return fmt.Errorf("references peer %d of %d", e.PeerIndex, len(d.Peers))
		}
	}
	return nil
}

func (rd *Reader) readRecord() (subtype uint16, ts time.Time, body []byte, err error) {
	var hdr [12]byte
	if _, err = io.ReadFull(rd.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = errors.New("truncated record header")
		}
		return 0, time.Time{}, nil, err
	}
	ts = time.Unix(int64(binary.BigEndian.Uint32(hdr[0:4])), 0).UTC()
	typ := binary.BigEndian.Uint16(hdr[4:6])
	subtype = binary.BigEndian.Uint16(hdr[6:8])
	length := binary.BigEndian.Uint32(hdr[8:12])
	if typ != TypeTableDumpV2 {
		return 0, time.Time{}, nil, fmt.Errorf("unsupported record type %d", typ)
	}
	const maxRecord = 64 << 20
	if length > maxRecord {
		return 0, time.Time{}, nil, fmt.Errorf("record length %d exceeds limit", length)
	}
	body = make([]byte, length)
	if _, err = io.ReadFull(rd.r, body); err != nil {
		return 0, time.Time{}, nil, fmt.Errorf("truncated record body: %w", err)
	}
	return subtype, ts, body, nil
}

func (d *Dump) parsePeerIndex(b []byte) error {
	if len(b) < 8 {
		return errors.New("peer index table truncated")
	}
	copy(d.CollectorID[:], b[0:4])
	nameLen := int(binary.BigEndian.Uint16(b[4:6]))
	if len(b) < 6+nameLen+2 {
		return errors.New("peer index table truncated")
	}
	d.ViewName = string(b[6 : 6+nameLen])
	off := 6 + nameLen
	count := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	for i := 0; i < count; i++ {
		if off >= len(b) {
			return errors.New("peer entry truncated")
		}
		ptype := b[off]
		off++
		var p Peer
		if off+4 > len(b) {
			return errors.New("peer entry truncated")
		}
		copy(p.BGPID[:], b[off:off+4])
		off += 4
		addrLen := 4
		if ptype&0x01 != 0 {
			addrLen = 16
		}
		if off+addrLen > len(b) {
			return errors.New("peer entry truncated")
		}
		if addrLen == 16 {
			p.Addr = netip.AddrFrom16([16]byte(b[off : off+16]))
		} else {
			p.Addr = netip.AddrFrom4([4]byte(b[off : off+4]))
		}
		off += addrLen
		asnLen := 2
		if ptype&0x02 != 0 {
			asnLen = 4
		}
		if off+asnLen > len(b) {
			return errors.New("peer entry truncated")
		}
		if asnLen == 4 {
			p.ASN = binary.BigEndian.Uint32(b[off:])
		} else {
			p.ASN = uint32(binary.BigEndian.Uint16(b[off:]))
		}
		off += asnLen
		d.Peers = append(d.Peers, p)
	}
	return nil
}

func parseRIB(b []byte, v6 bool) (RIBRecord, error) {
	var rec RIBRecord
	if len(b) < 5 {
		return rec, errors.New("RIB record truncated")
	}
	rec.Sequence = binary.BigEndian.Uint32(b[0:4])
	bits := int(b[4])
	maxBits := 32
	if v6 {
		maxBits = 128
	}
	if bits > maxBits {
		return rec, fmt.Errorf("prefix length %d out of range", bits)
	}
	nbytes := (bits + 7) / 8
	if len(b) < 5+nbytes+2 {
		return rec, errors.New("RIB record truncated")
	}
	var addr netip.Addr
	if v6 {
		var a [16]byte
		copy(a[:], b[5:5+nbytes])
		addr = netip.AddrFrom16(a)
	} else {
		var a [4]byte
		copy(a[:], b[5:5+nbytes])
		addr = netip.AddrFrom4(a)
	}
	p, err := netx.PrefixFrom(addr, bits)
	if err != nil {
		return rec, err
	}
	rec.Prefix = p
	off := 5 + nbytes
	count := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	for i := 0; i < count; i++ {
		if off+8 > len(b) {
			return rec, errors.New("RIB entry truncated")
		}
		var e RIBEntry
		e.PeerIndex = binary.BigEndian.Uint16(b[off:])
		e.OriginatedTime = time.Unix(int64(binary.BigEndian.Uint32(b[off+2:])), 0).UTC()
		attrLen := int(binary.BigEndian.Uint16(b[off+6:]))
		off += 8
		if off+attrLen > len(b) {
			return rec, errors.New("RIB entry attributes truncated")
		}
		u, err := wire.DecodeAttributes(b[off : off+attrLen])
		if err != nil {
			return rec, fmt.Errorf("RIB entry attributes: %w", err)
		}
		e.Path = u.PathASNs()
		off += attrLen
		rec.Entries = append(rec.Entries, e)
	}
	return rec, nil
}
