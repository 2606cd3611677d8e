// Package rtr implements the RPKI-to-Router protocol (RFC 8210, version
// 1): the channel through which relying-party software delivers
// validated ROA payloads to ROV-deploying routers. The server side
// serves a VRP snapshot; the client side (Fetch, Update) performs the
// Reset or Serial Query exchange within a context's bound and
// materializes the VRPs into a rov-compatible set.
//
// The subset implemented is the snapshot path every deployment exercises
// (Reset Query → Cache Response → Prefix PDUs → End of Data) plus Serial
// Query handling (a delta from a recent serial, Cache Reset for an older
// one) and Error Report PDUs.
package rtr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/rpki"
)

// Version is the protocol version spoken (RFC 8210).
const Version = 1

// PDU type codes.
const (
	TypeSerialNotify  = 0
	TypeSerialQuery   = 1
	TypeResetQuery    = 2
	TypeCacheResponse = 3
	TypeIPv4Prefix    = 4
	TypeIPv6Prefix    = 6
	TypeEndOfData     = 7
	TypeCacheReset    = 8
	TypeErrorReport   = 10
)

// Error codes from RFC 8210 §12.
const (
	ErrCorruptData        = 0
	ErrInternalError      = 1
	ErrNoDataAvailable    = 2
	ErrInvalidRequest     = 3
	ErrUnsupportedVersion = 4
	ErrUnsupportedPDU     = 5
)

// Flags on prefix PDUs.
const (
	// FlagAnnounce marks an announced (vs withdrawn) prefix.
	FlagAnnounce = 1
)

const headerLen = 8

// maxPDULen bounds a single PDU; error reports carry embedded PDUs and
// text but never legitimately exceed this.
const maxPDULen = 1 << 16

// PDU is one protocol data unit.
type PDU struct {
	Version byte
	Type    byte
	// Session is the session ID field (or error code for Error Report,
	// zero for queries).
	Session uint16
	// Serial is meaningful for Serial Notify/Query and End of Data.
	Serial uint32
	// Prefix fields, valid for IPv4/IPv6 Prefix PDUs.
	Flags     byte
	Prefix    netx.Prefix
	MaxLength byte
	ASN       uint32
	// Text is the diagnostic text of an Error Report.
	Text string
}

// Write serializes the PDU to w.
func (p *PDU) Write(w io.Writer) error {
	var body []byte
	switch p.Type {
	case TypeSerialNotify, TypeSerialQuery, TypeEndOfData:
		body = binary.BigEndian.AppendUint32(nil, p.Serial)
	case TypeResetQuery, TypeCacheResponse, TypeCacheReset:
		// header only
	case TypeIPv4Prefix:
		if !p.Prefix.IsValid() || !p.Prefix.Is4() {
			return errors.New("rtr: IPv4 prefix PDU without IPv4 prefix")
		}
		a := p.Prefix.Addr().As4()
		body = []byte{p.Flags, byte(p.Prefix.Bits()), p.MaxLength, 0}
		body = append(body, a[:]...)
		body = binary.BigEndian.AppendUint32(body, p.ASN)
	case TypeIPv6Prefix:
		if !p.Prefix.IsValid() || !p.Prefix.Is6() {
			return errors.New("rtr: IPv6 prefix PDU without IPv6 prefix")
		}
		a := p.Prefix.Addr().As16()
		body = []byte{p.Flags, byte(p.Prefix.Bits()), p.MaxLength, 0}
		body = append(body, a[:]...)
		body = binary.BigEndian.AppendUint32(body, p.ASN)
	case TypeErrorReport:
		// No encapsulated PDU (length 0) + text.
		body = binary.BigEndian.AppendUint32(nil, 0)
		body = binary.BigEndian.AppendUint32(body, uint32(len(p.Text)))
		body = append(body, p.Text...)
	default:
		return fmt.Errorf("rtr: cannot encode PDU type %d", p.Type)
	}
	hdr := make([]byte, headerLen)
	hdr[0] = p.Version
	hdr[1] = p.Type
	binary.BigEndian.PutUint16(hdr[2:4], p.Session)
	binary.BigEndian.PutUint32(hdr[4:8], uint32(headerLen+len(body)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// Read parses one PDU from r.
func Read(r io.Reader) (*PDU, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	p := &PDU{
		Version: hdr[0],
		Type:    hdr[1],
		Session: binary.BigEndian.Uint16(hdr[2:4]),
	}
	length := binary.BigEndian.Uint32(hdr[4:8])
	if length < headerLen || length > maxPDULen {
		return nil, fmt.Errorf("rtr: PDU length %d out of bounds", length)
	}
	body := make([]byte, length-headerLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("rtr: truncated PDU body: %w", err)
	}
	switch p.Type {
	case TypeSerialNotify, TypeSerialQuery, TypeEndOfData:
		if len(body) < 4 {
			return nil, errors.New("rtr: serial PDU too short")
		}
		p.Serial = binary.BigEndian.Uint32(body)
	case TypeResetQuery, TypeCacheResponse, TypeCacheReset:
		if len(body) != 0 {
			return nil, fmt.Errorf("rtr: type-%d PDU with body", p.Type)
		}
	case TypeIPv4Prefix:
		if len(body) != 12 {
			return nil, fmt.Errorf("rtr: IPv4 prefix PDU length %d", len(body))
		}
		return parsePrefixPDU(p, body, false)
	case TypeIPv6Prefix:
		if len(body) != 24 {
			return nil, fmt.Errorf("rtr: IPv6 prefix PDU length %d", len(body))
		}
		return parsePrefixPDU(p, body, true)
	case TypeErrorReport:
		if len(body) < 8 {
			return nil, errors.New("rtr: error report too short")
		}
		encapLen := binary.BigEndian.Uint32(body)
		if uint32(len(body)) < 4+encapLen+4 {
			return nil, errors.New("rtr: error report truncated")
		}
		textLen := binary.BigEndian.Uint32(body[4+encapLen:])
		rest := body[8+encapLen:]
		if uint32(len(rest)) < textLen {
			return nil, errors.New("rtr: error report text truncated")
		}
		p.Text = string(rest[:textLen])
	default:
		return nil, fmt.Errorf("rtr: unsupported PDU type %d", p.Type)
	}
	return p, nil
}

func parsePrefixPDU(p *PDU, body []byte, v6 bool) (*PDU, error) {
	p.Flags = body[0]
	bits := int(body[1])
	p.MaxLength = body[2]
	var prefix netx.Prefix
	var err error
	if v6 {
		var a [16]byte
		copy(a[:], body[4:20])
		prefix, err = netx.PrefixFrom(netip.AddrFrom16(a), bits)
		p.ASN = binary.BigEndian.Uint32(body[20:24])
	} else {
		var a [4]byte
		copy(a[:], body[4:8])
		prefix, err = netx.PrefixFrom(netip.AddrFrom4(a), bits)
		p.ASN = binary.BigEndian.Uint32(body[8:12])
	}
	if err != nil {
		return nil, fmt.Errorf("rtr: prefix PDU: %w", err)
	}
	if int(p.MaxLength) < bits {
		return nil, fmt.Errorf("rtr: prefix PDU max length %d < prefix length %d", p.MaxLength, bits)
	}
	p.Prefix = prefix
	return p, nil
}

// VRPToPDU converts a validated ROA payload to its announce PDU.
func VRPToPDU(v rpki.VRP) *PDU {
	typ := byte(TypeIPv4Prefix)
	if v.Prefix.Is6() {
		typ = TypeIPv6Prefix
	}
	return &PDU{
		Version:   Version,
		Type:      typ,
		Flags:     FlagAnnounce,
		Prefix:    v.Prefix,
		MaxLength: byte(v.MaxLength),
		ASN:       v.ASN,
	}
}

// PDUToVRP converts a prefix PDU back to a VRP.
func PDUToVRP(p *PDU) (rpki.VRP, error) {
	if p.Type != TypeIPv4Prefix && p.Type != TypeIPv6Prefix {
		return rpki.VRP{}, fmt.Errorf("rtr: PDU type %d is not a prefix", p.Type)
	}
	return rpki.VRP{Prefix: p.Prefix, ASN: p.ASN, MaxLength: int(p.MaxLength)}, nil
}
