// codec.go is the archive wire format: a compact, versioned binary
// encoding of one serve snapshot's dataset state with a CRC-32C
// integrity footer over the whole file. Encoding is deterministic
// (maps are emitted in sorted order), so identical snapshot content
// yields identical bytes and an identical checksum — the store uses
// the checksum as the integrity seal and to skip re-saving content a
// key's archive already holds.
//
// Decode is the adversarial side: it must survive arbitrary bytes
// (truncation, bit flips, hostile counts) returning an error, never a
// panic and never a silently wrong snapshot. Every read is
// bounds-checked, every count is capped against the bytes that could
// plausibly back it, and the magic, the format version and then the
// checksum are verified before any section is parsed.
// FuzzDecodeArchive drives this contract.

package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"net/netip"
	"time"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
)

// Magic and version of the archive format. The version bumps on any
// incompatible layout change; decoders reject unknown versions so an
// old binary never misreads a new archive (or vice versa).
//
// v2 sealed with fnv64a; v3 seals with CRC-32C (Castagnoli) in the same
// 8-byte footer, zero-extended. A v2 archive fails Decode as a format
// mismatch, so the store quarantines it once and the date resolves from
// its next source.
const (
	archiveMagic   = "MANRSNAP"
	archiveVersion = 3
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SnapshotData is the durable subset of a serve snapshot: everything
// expensive to recompute (the propagated IHR dataset and the
// validation registries), keyed by the world fingerprint and date that
// produced it. Per-AS metrics, ecosystem aggregates, and lookup
// indexes are deliberately absent — they are cheap, deterministic
// functions of the dataset and are recomputed on load, which keeps
// archives compact and leaves less surface for silent corruption.
type SnapshotData struct {
	// Fingerprint identifies the generating world (synth.World
	// Fingerprint); an archive only restores into the same world.
	Fingerprint string
	// Version is the serve snapshot version ("<fingerprint>@<date>").
	Version string
	// Date is the measurement date the snapshot answers for.
	Date time.Time

	PrefixOrigins []ihr.PrefixOrigin
	Transits      []ihr.TransitRow
	Visibility    ihr.Visibility
	// RPKI and IRR are the validation registries' authorizations
	// (VRPs / route objects) active at Date, in rov.Index.All() order.
	RPKI, IRR []rov.Authorization
}

// Key identifies one archive slot: the world that produced the
// snapshot and the measurement date it answers for.
type Key struct {
	Fingerprint string
	Date        time.Time
}

// String renders the key exactly like the serve layer's snapshot
// version, "<fingerprint>@<YYYY-MM-DD>".
func (k Key) String() string {
	return k.Fingerprint + "@" + k.Date.Format("2006-01-02")
}

// Key returns the archive key for this snapshot.
func (d *SnapshotData) Key() Key {
	return Key{Fingerprint: d.Fingerprint, Date: d.Date}
}

// Checksum returns the CRC-32C of the encoded archive before its
// footer — the value the footer carries.
func Checksum(encoded []byte) uint64 {
	if len(encoded) < 8 {
		return 0
	}
	return uint64(crc32.Checksum(encoded[:len(encoded)-8], castagnoli))
}

// Encode serializes d with the integrity footer appended.
func Encode(d *SnapshotData) []byte {
	// One allocation of the final size: growing a multi-megabyte slice
	// by append costs several times its size in copies and fresh pages.
	e := &encoder{buf: make([]byte, 0, encodedSize(d))}
	e.raw([]byte(archiveMagic))
	e.u16(archiveVersion)
	e.str(d.Fingerprint)
	e.str(d.Version)
	e.varint(d.Date.Unix())

	e.uvarint(uint64(len(d.PrefixOrigins)))
	for _, po := range d.PrefixOrigins {
		e.prefix(po.Prefix)
		e.uvarint(uint64(po.Origin))
		e.byte(byte(po.RPKI))
		e.byte(byte(po.IRR))
	}

	e.uvarint(uint64(len(d.Transits)))
	for _, tr := range d.Transits {
		e.prefix(tr.Prefix)
		e.uvarint(uint64(tr.Origin))
		e.uvarint(uint64(tr.Transit))
		e.u64(math.Float64bits(tr.Hegemony))
		e.byte(byte(tr.RPKI))
		e.byte(byte(tr.IRR))
		e.bool(tr.FromCustomer)
	}

	// Visibility is canonically sorted by (origin, prefix) — emit it
	// normalized, through a copy when the caller's slices are not, so
	// the encoding, and therefore the checksum, is a pure function of
	// the content even for callers that assembled the slices by hand.
	vis := d.Visibility
	if !vis.Normalized() {
		vis.Origs = append([]astopo.Origination(nil), vis.Origs...)
		vis.Counts = append([]int32(nil), vis.Counts...)
		vis.Normalize()
	}
	e.uvarint(uint64(vis.Len()))
	for i, og := range vis.Origs {
		e.prefix(og.Prefix)
		e.uvarint(uint64(og.Origin))
		e.uvarint(uint64(uint32(vis.Counts[i])))
	}

	for _, auths := range [][]rov.Authorization{d.RPKI, d.IRR} {
		e.uvarint(uint64(len(auths)))
		for _, a := range auths {
			e.prefix(a.Prefix)
			e.uvarint(uint64(a.ASN))
			e.byte(byte(a.MaxLength))
		}
	}

	e.u64(uint64(crc32.Checksum(e.buf, castagnoli)))
	return e.buf
}

// encodedSize is len(Encode(d)) computed without encoding: the same
// sections in the same order, lengths only. It runs a few bytes over
// when Visibility holds duplicates, which Encode collapses.
func encodedSize(d *SnapshotData) int {
	str := func(s string) int { return uvarintLen(uint64(len(s))) + len(s) }
	n := len(archiveMagic) + 2 + str(d.Fingerprint) + str(d.Version) + uvarintLen(zigzag(d.Date.Unix()))

	n += uvarintLen(uint64(len(d.PrefixOrigins)))
	for _, po := range d.PrefixOrigins {
		n += prefixLen(po.Prefix) + uvarintLen(uint64(po.Origin)) + 2
	}
	n += uvarintLen(uint64(len(d.Transits)))
	for _, tr := range d.Transits {
		n += prefixLen(tr.Prefix) + uvarintLen(uint64(tr.Origin)) + uvarintLen(uint64(tr.Transit)) + 8 + 3
	}
	n += uvarintLen(uint64(d.Visibility.Len()))
	for i, og := range d.Visibility.Origs {
		n += prefixLen(og.Prefix) + uvarintLen(uint64(og.Origin)) + uvarintLen(uint64(uint32(d.Visibility.Counts[i])))
	}
	for _, auths := range [][]rov.Authorization{d.RPKI, d.IRR} {
		n += uvarintLen(uint64(len(auths)))
		for _, a := range auths {
			n += prefixLen(a.Prefix) + uvarintLen(uint64(a.ASN)) + 1
		}
	}
	return n + 8
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func zigzag(v int64) uint64 { return uint64(v)<<1 ^ uint64(v>>63) }

func prefixLen(p netx.Prefix) int {
	if p.Is4() {
		return 1 + 4 + 1
	}
	return 1 + 16 + 1
}

// Decode parses an encoded archive. It checks the magic and the format
// version, then the footer checksum, before touching any section, so an
// archive of another version reads as a format mismatch rather than as
// damage. It returns an error — never panics — on truncated,
// corrupted, or version-skewed input.
func Decode(data []byte) (*SnapshotData, error) {
	const header = len(archiveMagic) + 2
	if len(data) < header+8 {
		return nil, fmt.Errorf("durable: archive truncated: %d bytes", len(data))
	}
	if string(data[:len(archiveMagic)]) != archiveMagic {
		return nil, fmt.Errorf("durable: bad archive magic")
	}
	if ver := binary.LittleEndian.Uint16(data[len(archiveMagic):header]); ver != archiveVersion {
		return nil, fmt.Errorf("durable: archive format v%d, want v%d", ver, archiveVersion)
	}
	footer := binary.LittleEndian.Uint64(data[len(data)-8:])
	if sum := Checksum(data); sum != footer {
		return nil, fmt.Errorf("durable: archive checksum mismatch: footer %016x, computed %016x", footer, sum)
	}
	r := &decoder{b: data[header : len(data)-8]}
	d := &SnapshotData{}
	var err error
	if d.Fingerprint, err = r.str(); err != nil {
		return nil, fmt.Errorf("durable: fingerprint: %w", err)
	}
	if d.Version, err = r.str(); err != nil {
		return nil, fmt.Errorf("durable: version: %w", err)
	}
	unix, err := r.varint()
	if err != nil {
		return nil, fmt.Errorf("durable: date: %w", err)
	}
	d.Date = time.Unix(unix, 0).UTC()

	n, err := r.count(8) // prefix(6) + origin + 2 statuses, minimum
	if err != nil {
		return nil, fmt.Errorf("durable: prefix-origin count: %w", err)
	}
	d.PrefixOrigins = make([]ihr.PrefixOrigin, n)
	for i := range d.PrefixOrigins {
		po := &d.PrefixOrigins[i]
		if po.Prefix, err = r.prefix(); err != nil {
			return nil, fmt.Errorf("durable: prefix-origin %d: %w", i, err)
		}
		if po.Origin, err = r.asn(); err != nil {
			return nil, fmt.Errorf("durable: prefix-origin %d: %w", i, err)
		}
		if po.RPKI, err = r.status(); err != nil {
			return nil, fmt.Errorf("durable: prefix-origin %d: %w", i, err)
		}
		if po.IRR, err = r.status(); err != nil {
			return nil, fmt.Errorf("durable: prefix-origin %d: %w", i, err)
		}
	}

	n, err = r.count(18) // prefix + 2 ASNs + hegemony(8) + 3 bytes
	if err != nil {
		return nil, fmt.Errorf("durable: transit count: %w", err)
	}
	d.Transits = make([]ihr.TransitRow, n)
	for i := range d.Transits {
		tr := &d.Transits[i]
		if tr.Prefix, err = r.prefix(); err != nil {
			return nil, fmt.Errorf("durable: transit %d: %w", i, err)
		}
		if tr.Origin, err = r.asn(); err != nil {
			return nil, fmt.Errorf("durable: transit %d: %w", i, err)
		}
		if tr.Transit, err = r.asn(); err != nil {
			return nil, fmt.Errorf("durable: transit %d: %w", i, err)
		}
		bits, err := r.u64()
		if err != nil {
			return nil, fmt.Errorf("durable: transit %d: %w", i, err)
		}
		tr.Hegemony = math.Float64frombits(bits)
		if math.IsNaN(tr.Hegemony) || math.IsInf(tr.Hegemony, 0) {
			return nil, fmt.Errorf("durable: transit %d: non-finite hegemony", i)
		}
		if tr.RPKI, err = r.status(); err != nil {
			return nil, fmt.Errorf("durable: transit %d: %w", i, err)
		}
		if tr.IRR, err = r.status(); err != nil {
			return nil, fmt.Errorf("durable: transit %d: %w", i, err)
		}
		if tr.FromCustomer, err = r.bool(); err != nil {
			return nil, fmt.Errorf("durable: transit %d: %w", i, err)
		}
	}

	n, err = r.count(8) // prefix + origin + count
	if err != nil {
		return nil, fmt.Errorf("durable: visibility count: %w", err)
	}
	d.Visibility.Origs = make([]astopo.Origination, n)
	d.Visibility.Counts = make([]int32, n)
	for i := 0; i < n; i++ {
		og := &d.Visibility.Origs[i]
		if og.Prefix, err = r.prefix(); err != nil {
			return nil, fmt.Errorf("durable: visibility %d: %w", i, err)
		}
		if og.Origin, err = r.asn(); err != nil {
			return nil, fmt.Errorf("durable: visibility %d: %w", i, err)
		}
		seen, err := r.uvarint()
		if err != nil || seen > math.MaxInt32 {
			return nil, fmt.Errorf("durable: visibility %d: bad count", i)
		}
		// Entries must arrive strictly ascending by (origin, prefix):
		// that is both the canonical encoding and the invariant the
		// binary-search lookup relies on after restore.
		if i > 0 {
			prev := d.Visibility.Origs[i-1]
			if prev.Origin > og.Origin ||
				(prev.Origin == og.Origin && prev.Prefix.Compare(og.Prefix) >= 0) {
				return nil, fmt.Errorf("durable: visibility %d: entries out of order", i)
			}
		}
		d.Visibility.Counts[i] = int32(seen)
	}

	for s, dst := range []*[]rov.Authorization{&d.RPKI, &d.IRR} {
		n, err = r.count(7) // prefix + asn + maxlen
		if err != nil {
			return nil, fmt.Errorf("durable: authorization count: %w", err)
		}
		auths := make([]rov.Authorization, n)
		for i := range auths {
			a := &auths[i]
			if a.Prefix, err = r.prefix(); err != nil {
				return nil, fmt.Errorf("durable: authorization %d/%d: %w", s, i, err)
			}
			if a.ASN, err = r.asn(); err != nil {
				return nil, fmt.Errorf("durable: authorization %d/%d: %w", s, i, err)
			}
			ml, err := r.byte()
			if err != nil {
				return nil, fmt.Errorf("durable: authorization %d/%d: %w", s, i, err)
			}
			maxBits := 128
			if a.Prefix.Is4() {
				maxBits = 32
			}
			if int(ml) < a.Prefix.Bits() || int(ml) > maxBits {
				return nil, fmt.Errorf("durable: authorization %d/%d: max length %d out of range", s, i, ml)
			}
			a.MaxLength = int(ml)
		}
		*dst = auths
	}

	if r.pos != len(r.b) {
		return nil, fmt.Errorf("durable: %d trailing bytes after archive body", len(r.b)-r.pos)
	}
	return d, nil
}

// encoder appends primitive values to a growing buffer.
type encoder struct{ buf []byte }

func (e *encoder) raw(p []byte)     { e.buf = append(e.buf, p...) }
func (e *encoder) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *encoder) u16(v uint16)     { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *encoder) u64(v uint64)     { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }

func (e *encoder) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.raw([]byte(s))
}

// prefix encodes family (4|6), the network address bytes, and the
// length. Prefixes are pre-masked (netx canonicalizes on parse).
func (e *encoder) prefix(p netx.Prefix) {
	if p.Is4() {
		e.byte(4)
		a := p.Addr().As4()
		e.raw(a[:])
	} else {
		e.byte(6)
		a := p.Addr().As16()
		e.raw(a[:])
	}
	e.byte(byte(p.Bits()))
}

// decoder reads primitive values from a byte slice with bounds checks
// on every access.
type decoder struct {
	b   []byte
	pos int
}

func (r *decoder) take(n int) ([]byte, error) {
	if n < 0 || len(r.b)-r.pos < n {
		return nil, fmt.Errorf("truncated (want %d bytes, have %d)", n, len(r.b)-r.pos)
	}
	p := r.b[r.pos : r.pos+n]
	r.pos += n
	return p, nil
}

func (r *decoder) byte() (byte, error) {
	p, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return p[0], nil
}

func (r *decoder) u64() (uint64, error) {
	p, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p), nil
}

func (r *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint")
	}
	r.pos += n
	return v, nil
}

func (r *decoder) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint")
	}
	r.pos += n
	return v, nil
}

// count reads a section length and caps it against the bytes actually
// remaining: a hostile count can never make the decoder allocate more
// than the input could back.
func (r *decoder) count(minEntry int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if max := uint64(len(r.b)-r.pos) / uint64(minEntry); v > max {
		return 0, fmt.Errorf("count %d exceeds remaining input (max %d)", v, max)
	}
	return int(v), nil
}

func (r *decoder) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.b)-r.pos) {
		return "", fmt.Errorf("string length %d exceeds remaining input", n)
	}
	p, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(p), nil
}

func (r *decoder) asn() (uint32, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxUint32 {
		return 0, fmt.Errorf("ASN %d out of range", v)
	}
	return uint32(v), nil
}

func (r *decoder) status() (rov.Status, error) {
	b, err := r.byte()
	if err != nil {
		return 0, err
	}
	if b > uint8(rov.InvalidLength) {
		return 0, fmt.Errorf("unknown rov status %d", b)
	}
	return rov.Status(b), nil
}

func (r *decoder) bool() (bool, error) {
	b, err := r.byte()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("bad bool byte %d", b)
	}
}

func (r *decoder) prefix() (netx.Prefix, error) {
	fam, err := r.byte()
	if err != nil {
		return netx.Prefix{}, err
	}
	var addr netip.Addr
	var maxBits int
	switch fam {
	case 4:
		p, err := r.take(4)
		if err != nil {
			return netx.Prefix{}, err
		}
		addr = netip.AddrFrom4([4]byte(p))
		maxBits = 32
	case 6:
		p, err := r.take(16)
		if err != nil {
			return netx.Prefix{}, err
		}
		addr = netip.AddrFrom16([16]byte(p))
		maxBits = 128
	default:
		return netx.Prefix{}, fmt.Errorf("bad address family %d", fam)
	}
	bits, err := r.byte()
	if err != nil {
		return netx.Prefix{}, err
	}
	if int(bits) > maxBits {
		return netx.Prefix{}, fmt.Errorf("prefix length %d out of range", bits)
	}
	pfx, err := netx.PrefixFrom(addr, int(bits))
	if err != nil {
		return netx.Prefix{}, err
	}
	// Reject unmasked encodings: a canonical archive never carries
	// host bits, so their presence means corruption.
	if pfx.Addr() != addr {
		return netx.Prefix{}, fmt.Errorf("prefix %s has host bits set", pfx)
	}
	return pfx, nil
}
