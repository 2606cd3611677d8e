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
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"
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

// Encode serializes d with the integrity footer appended, in one
// allocation sized for every row at its largest, clipped to its length.
func Encode(d *SnapshotData) []byte {
	return slices.Clip(appendArchive(nil, d))
}

// encodeBufs holds Save's encode buffers between saves, so that a
// process archiving date after date encodes each into the same memory
// instead of a fresh archive-sized slice; the collector reclaims them
// once saving stops.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// Largest encoding of one row of each section, and of a section count.
const (
	maxPrefix  = 1 + 16 + 1 // family, address, length
	maxUvarint = binary.MaxVarintLen32
	maxCount   = binary.MaxVarintLen64
	maxPORow   = maxPrefix + maxUvarint + 2
	maxTransit = maxPrefix + 2*maxUvarint + 8 + 3
	maxVisRow  = maxPrefix + 2*maxUvarint
	maxAuthRow = maxPrefix + maxUvarint + 1
)

// appendArchive appends d's encoding, footer included, to b in one pass.
// b first grows, once, to hold every row at its largest; each section
// then writes its rows at an offset, so a row costs no append or
// capacity check.
func appendArchive(b []byte, d *SnapshotData) []byte {
	b = slices.Grow(b, len(archiveMagic)+2+2*maxCount+len(d.Fingerprint)+len(d.Version)+maxCount+
		5*maxCount+len(d.PrefixOrigins)*maxPORow+len(d.Transits)*maxTransit+
		d.Visibility.Len()*maxVisRow+(len(d.RPKI)+len(d.IRR))*maxAuthRow+8)
	b = append(b, archiveMagic...)
	b = binary.LittleEndian.AppendUint16(b, archiveVersion)
	b = binary.AppendUvarint(b, uint64(len(d.Fingerprint)))
	b = append(b, d.Fingerprint...)
	b = binary.AppendUvarint(b, uint64(len(d.Version)))
	b = append(b, d.Version...)
	b = binary.AppendVarint(b, d.Date.Unix())

	buf, n := room(b, maxCount+len(d.PrefixOrigins)*maxPORow)
	n = putUvarint(buf, n, uint64(len(d.PrefixOrigins)))
	for i := range d.PrefixOrigins {
		po := &d.PrefixOrigins[i]
		n = putPrefix(buf, n, po.Prefix)
		n = putUvarint(buf, n, uint64(po.Origin))
		buf[n], buf[n+1] = byte(po.RPKI), byte(po.IRR)
		n += 2
	}

	buf, n = room(buf[:n], maxCount+len(d.Transits)*maxTransit)
	n = putUvarint(buf, n, uint64(len(d.Transits)))
	for i := range d.Transits {
		tr := &d.Transits[i]
		n = putPrefix(buf, n, tr.Prefix)
		n = putUvarint(buf, n, uint64(tr.Origin))
		n = putUvarint(buf, n, uint64(tr.Transit))
		binary.LittleEndian.PutUint64(buf[n:], math.Float64bits(tr.Hegemony))
		buf[n+8], buf[n+9], buf[n+10] = byte(tr.RPKI), byte(tr.IRR), 0
		if tr.FromCustomer {
			buf[n+10] = 1
		}
		n += 11
	}

	// Visibility is canonically sorted by (origin, prefix) — emit it
	// normalized, through a copy when the caller's slices are not, so
	// the encoding, and therefore the checksum, is a pure function of
	// the content even for callers that assembled the slices by hand.
	vis := &d.Visibility
	if !vis.Normalized() {
		sorted := ihr.Visibility{
			Origs:  append([]astopo.Origination(nil), vis.Origs...),
			Counts: append([]int32(nil), vis.Counts...),
		}
		sorted.Normalize()
		vis = &sorted
	}
	buf, n = room(buf[:n], maxCount+vis.Len()*maxVisRow)
	n = putUvarint(buf, n, uint64(vis.Len()))
	for i := range vis.Origs {
		og := &vis.Origs[i]
		n = putPrefix(buf, n, og.Prefix)
		n = putUvarint(buf, n, uint64(og.Origin))
		n = putUvarint(buf, n, uint64(uint32(vis.Counts[i])))
	}

	for _, auths := range [][]rov.Authorization{d.RPKI, d.IRR} {
		buf, n = room(buf[:n], maxCount+len(auths)*maxAuthRow)
		n = putUvarint(buf, n, uint64(len(auths)))
		for i := range auths {
			a := &auths[i]
			n = putPrefix(buf, n, a.Prefix)
			n = putUvarint(buf, n, uint64(a.ASN))
			buf[n] = byte(a.MaxLength)
			n++
		}
	}

	b = buf[:n]
	return binary.LittleEndian.AppendUint64(b, uint64(crc32.Checksum(b, castagnoli)))
}

// room returns b resliced to its capacity, grown to hold need more
// bytes, and the offset the next byte goes at.
func room(b []byte, need int) ([]byte, int) {
	n := len(b)
	b = slices.Grow(b, need)
	return b[:cap(b)], n
}

// putUvarint writes v as a uvarint at buf[n:] and returns the offset
// past it.
func putUvarint(buf []byte, n int, v uint64) int {
	for v >= 0x80 {
		buf[n] = byte(v) | 0x80
		v >>= 7
		n++
	}
	buf[n] = byte(v)
	return n + 1
}

// putPrefix writes p at buf[n:] as family (4|6), the network address
// bytes and the length, and returns the offset past it. Prefixes are
// pre-masked (netx canonicalizes on parse).
func putPrefix(buf []byte, n int, p netx.Prefix) int {
	hi, lo := p.Halves()
	if p.Is4() {
		buf[n] = 4
		binary.BigEndian.PutUint32(buf[n+1:], uint32(hi>>32))
		buf[n+5] = byte(p.Bits())
		return n + 6
	}
	buf[n] = 6
	binary.BigEndian.PutUint64(buf[n+1:], hi)
	binary.BigEndian.PutUint64(buf[n+9:], lo)
	buf[n+17] = byte(p.Bits())
	return n + 18
}

// Decode parses an encoded archive. It checks the magic and the format
// version, then the footer checksum, before touching any section, so an
// archive of another version reads as a format mismatch rather than as
// damage. It returns an error — never panics — on truncated,
// corrupted, or version-skewed input. Each section is one loop over its
// rows; a row's reads report failure as a bool, and only a failing row
// builds an error, which names the section and the row.
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
	var ok bool
	if d.Fingerprint, ok = r.str(); !ok {
		return nil, r.fail("fingerprint")
	}
	if d.Version, ok = r.str(); !ok {
		return nil, r.fail("version")
	}
	unix, ok := r.varint()
	if !ok {
		return nil, r.fail("date")
	}
	d.Date = time.Unix(unix, 0).UTC()

	n, ok := r.count(8) // prefix(6) + origin + 2 statuses, minimum
	if !ok {
		return nil, r.fail("prefix-origin count")
	}
	d.PrefixOrigins = make([]ihr.PrefixOrigin, n)
	for i := range d.PrefixOrigins {
		po := &d.PrefixOrigins[i]
		var ok1, ok2, ok3, ok4, ok5 bool
		var tail []byte
		po.Prefix, ok1 = r.prefix()
		po.Origin, ok2 = r.asn()
		if tail, ok3 = r.take(2); ok3 {
			po.RPKI, ok4 = r.status(tail[0])
			po.IRR, ok5 = r.status(tail[1])
		}
		if !(ok1 && ok2 && ok3 && ok4 && ok5) {
			return nil, r.fail(fmt.Sprintf("prefix-origin %d", i))
		}
	}

	n, ok = r.count(18) // prefix + 2 ASNs + hegemony(8) + 3 bytes
	if !ok {
		return nil, r.fail("transit count")
	}
	d.Transits = make([]ihr.TransitRow, n)
	for i := range d.Transits {
		tr := &d.Transits[i]
		// The fixed tail: hegemony (8 bytes), the statuses, the flag.
		var ok1, ok2, ok3, ok4, ok5, ok6, ok7, ok8 bool
		var tail []byte
		tr.Prefix, ok1 = r.prefix()
		tr.Origin, ok2 = r.asn()
		tr.Transit, ok3 = r.asn()
		if tail, ok4 = r.take(11); ok4 {
			tr.Hegemony, ok5 = r.hegemony(tail)
			tr.RPKI, ok6 = r.status(tail[8])
			tr.IRR, ok7 = r.status(tail[9])
			tr.FromCustomer, ok8 = r.bool(tail[10])
		}
		if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7 && ok8) {
			return nil, r.fail(fmt.Sprintf("transit %d", i))
		}
	}

	n, ok = r.count(8) // prefix + origin + count
	if !ok {
		return nil, r.fail("visibility count")
	}
	d.Visibility.Origs = make([]astopo.Origination, n)
	d.Visibility.Counts = make([]int32, n)
	for i := range d.Visibility.Origs {
		og := &d.Visibility.Origs[i]
		var ok1, ok2, ok3 bool
		og.Prefix, ok1 = r.prefix()
		og.Origin, ok2 = r.asn()
		d.Visibility.Counts[i], ok3 = r.seen()
		if !(ok1 && ok2 && ok3) {
			return nil, r.fail(fmt.Sprintf("visibility %d", i))
		}
		// Entries must arrive strictly ascending by (origin, prefix):
		// that is both the canonical encoding and the invariant the
		// binary-search lookup relies on after restore.
		if i > 0 {
			prev := &d.Visibility.Origs[i-1]
			if prev.Origin > og.Origin || (prev.Origin == og.Origin && prev.Prefix.Compare(og.Prefix) >= 0) {
				r.err = errors.New("entries out of order")
				return nil, r.fail(fmt.Sprintf("visibility %d", i))
			}
		}
	}

	for s, dst := range []*[]rov.Authorization{&d.RPKI, &d.IRR} {
		n, ok = r.count(7) // prefix + asn + maxlen
		if !ok {
			return nil, r.fail("authorization count")
		}
		auths := make([]rov.Authorization, n)
		for i := range auths {
			a := &auths[i]
			var ok1, ok2, ok3 bool
			a.Prefix, ok1 = r.prefix()
			a.ASN, ok2 = r.asn()
			a.MaxLength, ok3 = r.maxLength(a.Prefix)
			if !(ok1 && ok2 && ok3) {
				return nil, r.fail(fmt.Sprintf("authorization %d/%d", s, i))
			}
		}
		*dst = auths
	}

	if r.pos != len(r.b) {
		return nil, fmt.Errorf("durable: %d trailing bytes after archive body", len(r.b)-r.pos)
	}
	return d, nil
}

// decoder reads primitive values from a byte slice with bounds checks
// on every access. A read that fails returns false and records why in
// err, unless a read before it in the row failed first; the row's loop
// turns the first cause into an error with fail.
type decoder struct {
	b   []byte
	pos int
	err error
	// The last prefix read and its encoding: rows of one origination
	// (its transits, above all) repeat their prefix, which is then
	// compared, not decoded again.
	last    netx.Prefix
	lastEnc []byte
}

// fail returns the recorded cause as the error of what failed: a
// field, a section count or a section's row.
func (r *decoder) fail(what string) error {
	return fmt.Errorf("durable: %s: %w", what, r.err)
}

// bad records cause, unless an earlier read of the row failed first.
func (r *decoder) bad(cause error) {
	if r.err == nil {
		r.err = cause
	}
}

// truncated records that want more bytes were needed than are left.
func (r *decoder) truncated(want int) {
	r.bad(fmt.Errorf("truncated (want %d bytes, have %d)", want, len(r.b)-r.pos))
}

// take returns the next n bytes.
func (r *decoder) take(n int) ([]byte, bool) {
	if len(r.b)-r.pos < n {
		r.truncated(n)
		return nil, false
	}
	p := r.b[r.pos : r.pos+n]
	r.pos += n
	return p, true
}

func (r *decoder) uvarint() (uint64, bool) {
	if r.pos < len(r.b) && r.b[r.pos] < 0x80 {
		v := uint64(r.b[r.pos])
		r.pos++
		return v, true
	}
	return r.uvarintSlow()
}

func (r *decoder) uvarintSlow() (uint64, bool) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.bad(errors.New("bad uvarint"))
		return 0, false
	}
	r.pos += n
	return v, true
}

func (r *decoder) varint() (int64, bool) {
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		r.bad(errors.New("bad varint"))
		return 0, false
	}
	r.pos += n
	return v, true
}

// count reads a section length and caps it against the bytes actually
// remaining: a hostile count can never make the decoder allocate more
// than the input could back.
func (r *decoder) count(minEntry int) (int, bool) {
	v, ok := r.uvarint()
	if !ok {
		return 0, false
	}
	if max := uint64(len(r.b)-r.pos) / uint64(minEntry); v > max {
		r.bad(fmt.Errorf("count %d exceeds remaining input (max %d)", v, max))
		return 0, false
	}
	return int(v), true
}

func (r *decoder) str() (string, bool) {
	n, ok := r.uvarint()
	if !ok {
		return "", false
	}
	if n > uint64(len(r.b)-r.pos) {
		r.bad(fmt.Errorf("string length %d exceeds remaining input", n))
		return "", false
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, true
}

func (r *decoder) asn() (uint32, bool) {
	v, ok := r.uvarint()
	if v > math.MaxUint32 {
		return 0, r.badValue("ASN %d out of range", v)
	}
	return uint32(v), ok
}

// badValue records a field whose value is out of its range and returns
// false.
func (r *decoder) badValue(format string, v uint64) bool {
	r.bad(fmt.Errorf(format, v))
	return false
}

// seen reads a visibility count, at most math.MaxInt32.
func (r *decoder) seen() (int32, bool) {
	v, ok := r.uvarint()
	if ok && v > math.MaxInt32 {
		r.bad(errors.New("bad count"))
		return 0, false
	}
	return int32(v), ok
}

// status checks a status byte already read.
func (r *decoder) status(c byte) (rov.Status, bool) {
	if c > uint8(rov.InvalidLength) {
		return 0, r.badValue("unknown rov status %d", uint64(c))
	}
	return rov.Status(c), true
}

// bool checks a flag byte already read.
func (r *decoder) bool(c byte) (bool, bool) {
	if c > 1 {
		return false, r.badValue("bad bool byte %d", uint64(c))
	}
	return c == 1, true
}

// hegemony decodes a little-endian float64 already read, which must be
// finite.
func (r *decoder) hegemony(b []byte) (float64, bool) {
	h := math.Float64frombits(binary.LittleEndian.Uint64(b))
	if math.IsNaN(h) || math.IsInf(h, 0) {
		r.bad(errors.New("non-finite hegemony"))
		return 0, false
	}
	return h, true
}

// maxLength reads an authorization's max length, which must lie between
// p's length and its family's width.
func (r *decoder) maxLength(p netx.Prefix) (int, bool) {
	b, ok := r.take(1)
	if !ok {
		return 0, false
	}
	maxBits := 128
	if p.Is4() {
		maxBits = 32
	}
	if ml := int(b[0]); ml < p.Bits() || ml > maxBits {
		return 0, r.badValue("max length %d out of range", uint64(ml))
	}
	return int(b[0]), true
}

// prefix reads what putPrefix writes: the previous prefix again when the
// bytes repeat it, else a fresh decode (prefixSlow).
func (r *decoder) prefix() (netx.Prefix, bool) {
	if n := len(r.lastEnc); len(r.b)-r.pos >= n && n > 0 && string(r.b[r.pos:r.pos+n]) == string(r.lastEnc) {
		r.pos += n
		return r.last, true
	}
	return r.prefixSlow()
}

// prefixSlow decodes a prefix. An unmasked address is refused: a
// canonical archive never carries host bits, so their presence means
// corruption.
func (r *decoder) prefixSlow() (netx.Prefix, bool) {
	start := r.pos
	fam, ok := r.take(1)
	if !ok {
		return netx.Prefix{}, false
	}
	var hi, lo uint64
	switch fam[0] {
	case 4:
		b, ok := r.take(5)
		if !ok {
			return netx.Prefix{}, false
		}
		hi = uint64(binary.BigEndian.Uint32(b)) << 32
	case 6:
		b, ok := r.take(17)
		if !ok {
			return netx.Prefix{}, false
		}
		hi, lo = binary.BigEndian.Uint64(b), binary.BigEndian.Uint64(b[8:])
	default:
		return netx.Prefix{}, r.badValue("bad address family %d", uint64(fam[0]))
	}
	p, err := netx.PrefixFromHalves(hi, lo, int(r.b[r.pos-1]), fam[0] == 4)
	if err != nil {
		r.bad(err)
		return netx.Prefix{}, false
	}
	r.last, r.lastEnc = p, r.b[start:r.pos]
	return p, true
}
