package rpki

import (
	"bytes"
	"encoding/binary"
	"testing"

	"manrsmeter/internal/netx"
)

// stringPayloads spells out the signed encodings with each prefix's
// String() text: published signatures and verdict-memo keys are over
// these bytes, so payload() must keep producing them.
func stringPayloads(c *Certificate, r *ROA) (cert, roa []byte) {
	str := func(b []byte, s string) []byte {
		return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...)
	}
	cert = str(cert, "cert")
	cert = str(cert, c.SubjectName)
	cert = str(cert, c.IssuerName)
	cert = str(cert, string(c.PublicKey))
	cert = binary.BigEndian.AppendUint32(cert, uint32(len(c.Resources)))
	for _, p := range c.Resources {
		cert = str(cert, p.String())
	}
	cert = binary.BigEndian.AppendUint64(cert, uint64(c.NotBefore.Unix()))
	cert = binary.BigEndian.AppendUint64(cert, uint64(c.NotAfter.Unix()))

	roa = str(roa, "roa")
	roa = str(roa, r.SignerName)
	roa = binary.BigEndian.AppendUint32(roa, r.ASN)
	roa = binary.BigEndian.AppendUint32(roa, uint32(len(r.Prefixes)))
	for _, p := range r.Prefixes {
		roa = str(roa, p.Prefix.String())
		roa = binary.BigEndian.AppendUint32(roa, uint32(p.MaxLength))
	}
	roa = binary.BigEndian.AppendUint64(roa, uint64(r.NotBefore.Unix()))
	roa = binary.BigEndian.AppendUint64(roa, uint64(r.NotAfter.Unix()))
	return cert, roa
}

func TestPayloadsKeepStringEncoding(t *testing.T) {
	prefixes := []netx.Prefix{
		netx.MustParsePrefix("192.0.2.0/24"),
		netx.MustParsePrefix("0.0.0.0/0"),
		netx.MustParsePrefix("255.255.255.255/32"),
		netx.MustParsePrefix("2001:db8::/32"),
		netx.MustParsePrefix("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128"),
		netx.MustParsePrefix("::/0"),
		netx.MustParsePrefix("::ffff:10.0.0.0/104"),
		netx.MustParsePrefix("::ffff:198.51.100.7/128"),
		{}, // invalid: String() says "invalid Prefix"
	}
	for i, p := range prefixes {
		subset := prefixes[:i+1]
		c := &Certificate{SubjectName: "isp", IssuerName: "RIPE", PublicKey: bytes.Repeat([]byte{7}, 32),
			Resources: subset, NotBefore: t0, NotAfter: t1}
		r := &ROA{SignerName: "isp", ASN: 64500, NotBefore: t0, NotAfter: t1}
		for k, q := range subset {
			r.Prefixes = append(r.Prefixes, ROAPrefix{Prefix: q, MaxLength: 8 + k})
		}
		wantCert, wantROA := stringPayloads(c, r)
		if got := c.payload(); !bytes.Equal(got, wantCert) {
			t.Errorf("up to %s: certificate payload\n%q\nwant\n%q", p, got, wantCert)
		}
		if got := r.payload(); !bytes.Equal(got, wantROA) {
			t.Errorf("up to %s: ROA payload\n%q\nwant\n%q", p, got, wantROA)
		}
	}
}
