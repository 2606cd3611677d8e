package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzDecodeArchive fuzzes the archive body — every section after the
// header and before the footer — and seals each input inside the
// harness (magic, version, CRC-32C footer) before Decode, so mutations
// reach the section parsers instead of failing the checksum. The
// contract: never panic, and anything that decodes without error must
// be re-encodable to a stable value — a decode that "succeeds" into a
// snapshot the encoder cannot reproduce would be silent corruption.
// FuzzDecodeSealedArchive covers the header and the seal.
func FuzzDecodeArchive(f *testing.F) {
	body := func(archive []byte) []byte { return archive[len(archiveMagic)+2 : len(archive)-8] }
	full := body(Encode(testSnapshotData(0)))
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(full[:16])
	f.Add([]byte{})
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Add(body(Encode(testSnapshotData(1))))
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, seal(body)) })
}

// FuzzDecodeSealedArchive feeds the decoder arbitrary bytes, seal and
// all: the header checks and the checksum must refuse what is not a
// sealed archive of this version, without panicking.
func FuzzDecodeSealedArchive(f *testing.F) {
	full := Encode(testSnapshotData(0))
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(full[:len(archiveMagic)+2])
	f.Add([]byte{})
	f.Add([]byte(archiveMagic))
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Fuzz(checkDecode)
}

// seal frames body as an archive of this version: magic, version, body
// and the CRC-32C footer.
func seal(body []byte) []byte {
	b := append([]byte(archiveMagic), 0, 0)
	binary.LittleEndian.PutUint16(b[len(archiveMagic):], archiveVersion)
	b = append(b, body...)
	return binary.LittleEndian.AppendUint64(b, uint64(crc32.Checksum(b, castagnoli)))
}

// checkDecode holds Decode to the fuzz contract on data.
func checkDecode(t *testing.T, data []byte) {
	d, err := Decode(data)
	if err != nil {
		return
	}
	if d == nil {
		t.Fatal("nil snapshot with nil error")
	}
	reenc := Encode(d)
	if sum := Checksum(reenc); sum != Checksum(data) && !bytes.Equal(reenc, data) {
		// Non-canonical but valid inputs may re-encode differently;
		// the round trip through the canonical form must still be
		// lossless.
		d2, err := Decode(reenc)
		if err != nil {
			t.Fatalf("re-encode of a decoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatal("decode → encode → decode is not a fixed point")
		}
	}
}
