package durable

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
)

// testSnapshotData builds a small but fully populated archive payload
// by hand — no world generation, so the durable suite stays fast.
// variant perturbs the content so distinct payloads get distinct
// checksums.
func testSnapshotData(variant int) *SnapshotData {
	date := time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)
	p1 := netx.MustParsePrefix("10.0.0.0/8")
	p2 := netx.MustParsePrefix("192.0.2.0/24")
	p3 := netx.MustParsePrefix("2001:db8::/32")
	return &SnapshotData{
		Fingerprint: "w0123456789abcdef",
		Version:     "w0123456789abcdef@2022-05-01",
		Date:        date,
		PrefixOrigins: []ihr.PrefixOrigin{
			{Prefix: p1, Origin: 64500, RPKI: rov.Valid, IRR: rov.NotFound},
			{Prefix: p2, Origin: 64501, RPKI: rov.InvalidASN, IRR: rov.InvalidLength},
			{Prefix: p3, Origin: uint32(64502 + variant), RPKI: rov.NotFound, IRR: rov.Valid},
		},
		Transits: []ihr.TransitRow{
			{Prefix: p1, Origin: 64500, Transit: 64510, Hegemony: 0.75,
				RPKI: rov.Valid, IRR: rov.NotFound, FromCustomer: true},
			{Prefix: p2, Origin: 64501, Transit: 64511, Hegemony: 0.5,
				RPKI: rov.InvalidASN, IRR: rov.InvalidLength, FromCustomer: false},
		},
		Visibility: ihr.Visibility{
			Origs: []astopo.Origination{
				{Prefix: p1, Origin: 64500},
				{Prefix: p2, Origin: 64501},
				{Prefix: p3, Origin: 64502},
			},
			Counts: []int32{7, int32(3 + variant), 1},
		},
		RPKI: []rov.Authorization{
			{Prefix: p1, ASN: 64500, MaxLength: 24},
			{Prefix: p3, ASN: 64502, MaxLength: 48},
		},
		IRR: []rov.Authorization{
			{Prefix: p2, ASN: 64501, MaxLength: 24},
		},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	want := testSnapshotData(0)
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestCodecDeterministic(t *testing.T) {
	a, b := Encode(testSnapshotData(0)), Encode(testSnapshotData(0))
	if !bytes.Equal(a, b) {
		t.Fatal("two encodes of identical content differ")
	}
	if bytes.Equal(a, Encode(testSnapshotData(1))) {
		t.Fatal("distinct content encoded identically")
	}
	// Visibility assembled by hand, out of order and with a duplicate,
	// encodes as its normalized form and is left as the caller built it.
	d := testSnapshotData(0)
	v := &d.Visibility
	v.Origs = []astopo.Origination{v.Origs[2], v.Origs[0], v.Origs[1], v.Origs[0]}
	v.Counts = []int32{v.Counts[2], v.Counts[0], v.Counts[1], v.Counts[0]}
	before := *v
	before.Origs, before.Counts = slices.Clone(v.Origs), slices.Clone(v.Counts)
	if !bytes.Equal(Encode(d), a) {
		t.Error("an unnormalized Visibility encodes differently from its normalized form")
	}
	if !reflect.DeepEqual(*v, before) {
		t.Error("Encode modified the caller's Visibility")
	}
}

// TestEncodeSizedOnce holds the one-pass encoder to its layout: Encode
// makes one allocation (when the visibility rows come normalized, else
// it normalizes a copy first, and in a build without the race detector,
// which allocates more) and returns a slice of exactly its bytes, which
// decode and re-encode to themselves at every varint width, and each
// section's largest row (IPv6 prefix, widest varints) takes exactly the
// room its section reserves per row, so a row is never written past it.
func TestEncodeSizedOnce(t *testing.T) {
	wide := testSnapshotData(0)
	wide.Date = time.Date(1960, 1, 1, 0, 0, 0, 0, time.UTC) // negative varint
	for i, asn := range []uint32{0, 127, 128, 1 << 14, 1 << 21, 1 << 28, math.MaxUint32} {
		wide.PrefixOrigins = append(wide.PrefixOrigins, ihr.PrefixOrigin{Prefix: wide.PrefixOrigins[i%3].Prefix, Origin: asn})
		wide.Transits = append(wide.Transits, ihr.TransitRow{Prefix: wide.PrefixOrigins[i%3].Prefix, Origin: asn, Transit: asn})
		wide.Visibility.Origs = append(wide.Visibility.Origs, astopo.Origination{Prefix: wide.PrefixOrigins[i%3].Prefix, Origin: asn})
		wide.Visibility.Counts = append(wide.Visibility.Counts, int32(asn>>1))
		wide.IRR = append(wide.IRR, rov.Authorization{Prefix: wide.PrefixOrigins[i%3].Prefix, ASN: asn, MaxLength: 32})
	}
	// Consecutive rows whose prefixes share an address and differ in
	// length, in both widths: a decode must not take one for the other.
	nested := &SnapshotData{}
	for i, p := range []string{"10.0.0.0/8", "10.0.0.0/16", "::ffff:10.0.0.0/104", "::ffff:10.0.0.0/112"} {
		p := netx.MustParsePrefix(p)
		nested.PrefixOrigins = append(nested.PrefixOrigins, ihr.PrefixOrigin{Prefix: p, Origin: 64500})
		nested.Transits = append(nested.Transits, ihr.TransitRow{Prefix: p, Origin: 64500, Transit: uint32(i)})
		nested.Visibility.Origs = append(nested.Visibility.Origs, astopo.Origination{Prefix: p, Origin: 64500})
		nested.Visibility.Counts = append(nested.Visibility.Counts, 1)
	}
	for _, d := range []*SnapshotData{{}, testSnapshotData(0), testSnapshotData(1), wide, nested} {
		b := Encode(d)
		if cap(b) != len(b) {
			t.Errorf("encoded %d bytes in a slice of %d", len(b), cap(b))
		}
		if n := testing.AllocsPerRun(5, func() { Encode(d) }); !raceEnabled && d.Visibility.Normalized() && n != 1 {
			t.Errorf("Encode of %d bytes made %v allocations, want 1", len(b), n)
		}
		back, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(Encode(back), b) {
			t.Error("decode and re-encode changes the archive")
		}
	}

	v6, top := netx.MustParsePrefix("2001:db8::/32"), uint32(math.MaxUint32)
	empty := len(Encode(&SnapshotData{}))
	for _, c := range []struct {
		section string
		d       *SnapshotData
		room    int
	}{
		{"prefix-origin", &SnapshotData{PrefixOrigins: []ihr.PrefixOrigin{{Prefix: v6, Origin: top}}}, maxPORow},
		{"transit", &SnapshotData{Transits: []ihr.TransitRow{{Prefix: v6, Origin: top, Transit: top, FromCustomer: true}}}, maxTransit},
		{"visibility", &SnapshotData{Visibility: ihr.Visibility{
			Origs: []astopo.Origination{{Prefix: v6, Origin: top}}, Counts: []int32{-1}}}, maxVisRow},
		{"authorization", &SnapshotData{IRR: []rov.Authorization{{Prefix: v6, ASN: top, MaxLength: 128}}}, maxAuthRow},
	} {
		if got := len(Encode(c.d)) - empty; got != c.room {
			t.Errorf("largest %s row is %d bytes, its section reserves %d", c.section, got, c.room)
		}
	}
}

// TestCodecEveryTruncation cuts the archive at every possible length:
// each must decode to an error, never a panic or a value.
func TestCodecEveryTruncation(t *testing.T) {
	full := Encode(testSnapshotData(0))
	for n := 0; n < len(full); n++ {
		if _, err := Decode(full[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(full))
		}
	}
}

// TestCodecEveryBitFlip flips one bit in every byte: the checksum
// footer must reject every single one.
func TestCodecEveryBitFlip(t *testing.T) {
	full := Encode(testSnapshotData(0))
	buf := make([]byte, len(full))
	for i := range full {
		copy(buf, full)
		buf[i] ^= 0x01
		if _, err := Decode(buf); err == nil {
			t.Fatalf("bit flip at byte %d decoded without error", i)
		}
	}
}

func TestCodecRejectsVersionSkew(t *testing.T) {
	full := Encode(testSnapshotData(0))
	// Patch the format version and fix up the footer so only the
	// version check can reject it.
	buf := append([]byte(nil), full...)
	buf[len(archiveMagic)] = archiveVersion + 1
	sum := Checksum(buf)
	for i := 0; i < 8; i++ {
		buf[len(buf)-8+i] = byte(sum >> (8 * i))
	}
	_, err := Decode(buf)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("format")) {
		t.Fatalf("version skew not rejected: %v", err)
	}

	// A v2 archive, as the v2 encoder wrote testSnapshotData(0): its
	// fnv64a seal is intact, but not as CRC-32C. It must read as a
	// format mismatch, not as damage — and it is this encoding with only
	// the version and the seal changed.
	v2, err := os.ReadFile("testdata/archive-v2.mds")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(v2); err == nil || !bytes.Contains([]byte(err.Error()), []byte("format")) {
		t.Fatalf("v2 archive not rejected as a format mismatch: %v", err)
	}
	if !bytes.Equal(asV2(full), v2) {
		t.Fatal("the v3 body differs from the v2 body beyond the version and the seal")
	}
}

// asV2 rewrites an archive as the v2 format wrote it: the same body
// under version 2, sealed with fnv64a.
func asV2(archive []byte) []byte {
	buf := append([]byte(nil), archive...)
	binary.LittleEndian.PutUint16(buf[len(archiveMagic):], 2)
	h := fnv.New64a()
	h.Write(buf[:len(buf)-8])
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], h.Sum64())
	return buf
}

func TestKeyString(t *testing.T) {
	d := testSnapshotData(0)
	if got := d.Key().String(); got != d.Version {
		t.Fatalf("key %q, want the snapshot version %q", got, d.Version)
	}
}

// TestDecodeRejectsSealedDamage: bytes that pass the checksum (resealed
// after the damage) but hold a value out of its field's range fail
// Decode with an error naming the section and the row. Each damaged byte is found by
// encoding the archive with that one field changed.
func TestDecodeRejectsSealedDamage(t *testing.T) {
	base := Encode(testSnapshotData(0))
	at := func(change func(d *SnapshotData)) []int {
		d := testSnapshotData(0)
		change(d)
		var diff []int
		for i, c := range Encode(d)[:len(base)-8] {
			if c != base[i] {
				diff = append(diff, i)
			}
		}
		return diff
	}
	for _, c := range []struct {
		name   string
		change func(d *SnapshotData)
		set    []byte
		want   []string
	}{
		{"flag byte", func(d *SnapshotData) { d.Transits[0].FromCustomer = false }, []byte{2}, []string{"transit 0", "bool"}},
		{"transit RPKI", func(d *SnapshotData) { d.Transits[1].RPKI = rov.Valid }, []byte{7}, []string{"transit 1", "status"}},
		{"transit IRR", func(d *SnapshotData) { d.Transits[0].IRR = rov.Valid }, []byte{4}, []string{"transit 0", "status"}},
		// 0.75 and -0.25 differ in the two top bytes, the sign and
		// exponent ones; all-ones exponent bits make 0x7ff8…, a NaN.
		{"hegemony", func(d *SnapshotData) { d.Transits[0].Hegemony = -0.25 }, []byte{0xf8, 0x7f}, []string{"transit 0", "non-finite"}},
		{"origin status", func(d *SnapshotData) { d.PrefixOrigins[1].IRR = rov.Valid }, []byte{9}, []string{"prefix-origin 1", "status"}},
		{"host bits", func(d *SnapshotData) { d.PrefixOrigins[0].Prefix = netx.MustParsePrefix("10.0.0.0/9") }, []byte{4}, []string{"prefix-origin 0", "host bits"}},
		{"max length", func(d *SnapshotData) { d.IRR[0].MaxLength = 25 }, []byte{33}, []string{"authorization 1/0", "max length"}},
	} {
		pos := at(c.change)
		if len(pos) != len(c.set) {
			t.Fatalf("%s: the change moved bytes %v, want %d", c.name, pos, len(c.set))
		}
		buf := slices.Clone(base)
		for i, p := range pos {
			buf[p] = c.set[i]
		}
		binary.LittleEndian.PutUint64(buf[len(buf)-8:], Checksum(buf))
		_, err := Decode(buf)
		for _, w := range c.want {
			if err == nil || !bytes.Contains([]byte(err.Error()), []byte(w)) {
				t.Errorf("%s: Decode = %v, want an error naming %q", c.name, err, w)
			}
		}
	}
}
