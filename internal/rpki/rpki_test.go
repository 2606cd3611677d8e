package rpki

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"reflect"
	"strings"
	"testing"
	"time"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
)

var (
	t0 = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	t1 = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	// evaluation time inside the window
	tEval = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)
)

func pfx(s string) netx.Prefix { return netx.MustParsePrefix(s) }

func newAnchor(t *testing.T, rir RIR, resources ...string) *CA {
	t.Helper()
	var rs []netx.Prefix
	for _, s := range resources {
		rs = append(rs, pfx(s))
	}
	ca, err := NewTrustAnchor(rir, rs, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

// runOnce is Run on the calling goroutine, for tests that are not about
// the worker count.
func runOnce(t *testing.T, rp *RelyingParty, repo *Repository) ([]VRP, ValidationStats) {
	t.Helper()
	vrps, stats, err := rp.Run(context.Background(), repo, 1)
	if err != nil {
		t.Fatal(err)
	}
	return vrps, stats
}

func TestRIRString(t *testing.T) {
	want := map[RIR]string{AFRINIC: "AFRINIC", APNIC: "APNIC", ARIN: "ARIN", LACNIC: "LACNIC", RIPE: "RIPE"}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("RIR(%d).String() = %q, want %q", r, r.String(), s)
		}
	}
	if RIR(9).String() != "RIR(9)" {
		t.Errorf("unknown RIR string = %q", RIR(9).String())
	}
	if len(AllRIRs) != 5 {
		t.Errorf("AllRIRs = %d", len(AllRIRs))
	}
}

func TestAnchorROAEndToEnd(t *testing.T) {
	ta := newAnchor(t, RIPE, "10.0.0.0/8")
	roa, err := ta.SignROA(64500, []ROAPrefix{{Prefix: pfx("10.1.0.0/16"), MaxLength: 24}}, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	repo := &Repository{}
	repo.AddROA(roa)
	rp, err := NewRelyingParty(ta.Cert)
	if err != nil {
		t.Fatal(err)
	}
	rp.Now = tEval
	vrps, stats := runOnce(t, rp, repo)
	if stats.ROAsValid != 1 || stats.ROAsRejected != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(vrps) != 1 || vrps[0].ASN != 64500 || vrps[0].MaxLength != 24 {
		t.Fatalf("vrps = %v", vrps)
	}
	ix, err := BuildIndex(vrps)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Validate(pfx("10.1.5.0/24"), 64500); got != rov.Valid {
		t.Errorf("validate through VRP index = %v", got)
	}
}

func TestDelegatedCAChain(t *testing.T) {
	ta := newAnchor(t, ARIN, "10.0.0.0/8")
	isp, err := ta.IssueCA("ISP-1", []netx.Prefix{pfx("10.1.0.0/16")}, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	cust, err := isp.IssueCA("CUST-1", []netx.Prefix{pfx("10.1.128.0/17")}, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	roa, err := cust.SignROA(64510, []ROAPrefix{{Prefix: pfx("10.1.128.0/17"), MaxLength: 20}}, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	repo := &Repository{}
	repo.AddCert(isp.Cert)
	repo.AddCert(cust.Cert)
	repo.AddROA(roa)
	rp, _ := NewRelyingParty(ta.Cert)
	rp.Now = tEval
	vrps, stats := runOnce(t, rp, repo)
	if stats.CertsValid != 2 || stats.ROAsValid != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(vrps) != 1 || vrps[0].ASN != 64510 {
		t.Fatalf("vrps = %v", vrps)
	}
}

func TestIssueCAOverclaimRejected(t *testing.T) {
	ta := newAnchor(t, RIPE, "10.0.0.0/8")
	if _, err := ta.IssueCA("EVIL", []netx.Prefix{pfx("11.0.0.0/8")}, t0, t1); err == nil {
		t.Error("issuing resources not held should fail")
	}
}

func TestSignROAValidation(t *testing.T) {
	ta := newAnchor(t, RIPE, "10.0.0.0/8")
	cases := []ROAPrefix{
		{Prefix: pfx("11.0.0.0/16"), MaxLength: 24}, // not held
		{Prefix: pfx("10.0.0.0/16"), MaxLength: 8},  // maxlen < prefix len
		{Prefix: pfx("10.0.0.0/16"), MaxLength: 33}, // maxlen > 32
		{Prefix: netx.Prefix{}, MaxLength: 24},      // invalid prefix
	}
	for i, c := range cases {
		if _, err := ta.SignROA(1, []ROAPrefix{c}, t0, t1); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestForgedCertificateRejected(t *testing.T) {
	ta := newAnchor(t, RIPE, "10.0.0.0/8")
	other := newAnchor(t, APNIC, "10.0.0.0/8") // different key, same resources
	// A CA issued by the *wrong* anchor claims to be issued by RIPE.
	forged, err := other.IssueCA("MALLORY", []netx.Prefix{pfx("10.2.0.0/16")}, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	forged.Cert.IssuerName = "RIPE" // lie about the issuer; signature now mismatches

	roa, err := forged.SignROA(666, []ROAPrefix{{Prefix: pfx("10.2.0.0/16"), MaxLength: 16}}, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	repo := &Repository{}
	repo.AddCert(forged.Cert)
	repo.AddROA(roa)
	rp, _ := NewRelyingParty(ta.Cert)
	rp.Now = tEval
	vrps, stats := runOnce(t, rp, repo)
	if len(vrps) != 0 || stats.ROAsValid != 0 || stats.CertsValid != 0 {
		t.Fatalf("forged chain must not validate: vrps=%v stats=%+v", vrps, stats)
	}
}

func TestExpiredObjectsRejected(t *testing.T) {
	ta := newAnchor(t, RIPE, "10.0.0.0/8")
	roa, err := ta.SignROA(1, []ROAPrefix{{Prefix: pfx("10.0.0.0/16"), MaxLength: 16}}, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	repo := &Repository{}
	repo.AddROA(roa)
	rp, _ := NewRelyingParty(ta.Cert)
	rp.Now = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC) // after expiry
	vrps, stats := runOnce(t, rp, repo)
	if len(vrps) != 0 || stats.ROAsRejected != 1 {
		t.Fatalf("expired ROA must be rejected: %v %+v", vrps, stats)
	}
	// Also before NotBefore.
	rp.Now = time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	vrps, _ = runOnce(t, rp, repo)
	if len(vrps) != 0 {
		t.Fatal("not-yet-valid ROA must be rejected")
	}
}

func TestTamperedROARejected(t *testing.T) {
	ta := newAnchor(t, RIPE, "10.0.0.0/8")
	roa, err := ta.SignROA(64500, []ROAPrefix{{Prefix: pfx("10.0.0.0/16"), MaxLength: 16}}, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	roa.ASN = 666 // tamper after signing
	repo := &Repository{}
	repo.AddROA(roa)
	rp, _ := NewRelyingParty(ta.Cert)
	rp.Now = tEval
	vrps, stats := runOnce(t, rp, repo)
	if len(vrps) != 0 || stats.ROAsValid != 0 {
		t.Fatalf("tampered ROA must be rejected: %v %+v", vrps, stats)
	}
}

func TestChainResourceShrinkStopsROA(t *testing.T) {
	// CA child holds resources; ROA claims a prefix outside the *signer's*
	// (though inside the anchor's) resources: must be rejected.
	ta := newAnchor(t, RIPE, "10.0.0.0/8")
	isp, err := ta.IssueCA("ISP", []netx.Prefix{pfx("10.1.0.0/16")}, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	// Bypass SignROA's own check by signing manually.
	roa := &ROA{
		SignerName: "ISP",
		ASN:        64500,
		Prefixes:   []ROAPrefix{{Prefix: pfx("10.2.0.0/16"), MaxLength: 16}},
		NotBefore:  t0,
		NotAfter:   t1,
	}
	roa.Signature = signWith(isp, roa)
	repo := &Repository{}
	repo.AddCert(isp.Cert)
	repo.AddROA(roa)
	rp, _ := NewRelyingParty(ta.Cert)
	rp.Now = tEval
	vrps, _ := runOnce(t, rp, repo)
	if len(vrps) != 0 {
		t.Fatalf("ROA outside signer resources must be rejected: %v", vrps)
	}
}

// signWith signs a ROA with the CA's private key directly, bypassing
// SignROA's resource checks, to simulate a misbehaving publisher.
func signWith(ca *CA, roa *ROA) []byte {
	return ed25519.Sign(ca.key, roa.payload())
}

func TestAnchorValidationAtConstruction(t *testing.T) {
	ta := newAnchor(t, RIPE, "10.0.0.0/8")
	bad := *ta.Cert
	bad.IssuerName = "SOMEONE-ELSE"
	if _, err := NewRelyingParty(&bad); err == nil {
		t.Error("non-self-issued anchor should be rejected")
	}
	bad2 := *ta.Cert
	bad2.Signature = append([]byte(nil), bad2.Signature...)
	bad2.Signature[0] ^= 0xFF
	if _, err := NewRelyingParty(&bad2); err == nil {
		t.Error("anchor with bad signature should be rejected")
	}
}

func TestMultiAnchorForest(t *testing.T) {
	ripe := newAnchor(t, RIPE, "10.0.0.0/8")
	apnic := newAnchor(t, APNIC, "20.0.0.0/8")
	r1, err := ripe.SignROA(1, []ROAPrefix{{Prefix: pfx("10.0.0.0/16"), MaxLength: 16}}, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := apnic.SignROA(2, []ROAPrefix{{Prefix: pfx("20.0.0.0/16"), MaxLength: 16}}, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	repo := &Repository{}
	repo.AddROA(r1)
	repo.AddROA(r2)
	rp, _ := NewRelyingParty(ripe.Cert, apnic.Cert)
	rp.Now = tEval
	vrps, _ := runOnce(t, rp, repo)
	if len(vrps) != 2 {
		t.Fatalf("vrps = %v", vrps)
	}
	// Sorted by prefix: 10/16 before 20/16.
	if vrps[0].ASN != 1 || vrps[1].ASN != 2 {
		t.Errorf("sort order: %v", vrps)
	}
}

func TestVRPCSVRoundTrip(t *testing.T) {
	vrps := []VRP{
		{Prefix: pfx("10.0.0.0/16"), ASN: 64500, MaxLength: 24},
		{Prefix: pfx("2001:db8::/32"), ASN: 64501, MaxLength: 48},
	}
	var buf bytes.Buffer
	if err := WriteVRPCSV(&buf, vrps); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVRPCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != vrps[0] || got[1] != vrps[1] {
		t.Errorf("round trip = %v", got)
	}
}

func TestReadVRPCSVErrors(t *testing.T) {
	cases := []string{
		"header\nonly,three,fields\n",
		"header\nuri,ASxx,10.0.0.0/8,8,,\n",
		"header\nuri,AS1,banana,8,,\n",
		"header\nuri,AS1,10.0.0.0/8,banana,,\n",
	}
	for i, c := range cases {
		if _, err := ReadVRPCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// Plain numeric ASN (no AS prefix) is accepted, like some archives.
	got, err := ReadVRPCSV(strings.NewReader("h\nuri,64500,10.0.0.0/8,8,,\n"))
	if err != nil || len(got) != 1 || got[0].ASN != 64500 {
		t.Errorf("numeric ASN parse = %v err %v", got, err)
	}
}

func TestAS0ROA(t *testing.T) {
	// AS0 ROAs are legitimate "do not route" assertions; they validate and
	// produce VRPs whose ASN 0 marks every real origin invalid.
	ta := newAnchor(t, APNIC, "203.0.113.0/24")
	roa, err := ta.SignROA(0, []ROAPrefix{{Prefix: pfx("203.0.113.0/24"), MaxLength: 24}}, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	repo := &Repository{}
	repo.AddROA(roa)
	rp, _ := NewRelyingParty(ta.Cert)
	rp.Now = tEval
	vrps, _ := runOnce(t, rp, repo)
	if len(vrps) != 1 || vrps[0].ASN != 0 {
		t.Fatalf("AS0 vrps = %v", vrps)
	}
	ix, err := BuildIndex(vrps)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Validate(pfx("203.0.113.0/24"), 23947); got != rov.InvalidASN {
		t.Errorf("AS0-covered route = %v, want InvalidASN", got)
	}
}

// Run orders VRPs by prefix, then ASN, then max length, whatever the
// publication order.
func TestVRPOrder(t *testing.T) {
	ta := newAnchor(t, RIPE, "10.0.0.0/8")
	repo := &Repository{}
	for _, r := range []struct {
		asn      uint32
		prefixes []ROAPrefix
	}{
		{2, []ROAPrefix{{pfx("10.0.0.0/16"), 24}, {pfx("10.0.0.0/16"), 16}, {pfx("10.0.0.0/8"), 8}}},
		{1, []ROAPrefix{{pfx("10.0.0.0/16"), 20}}},
	} {
		roa, err := ta.SignROA(r.asn, r.prefixes, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		repo.AddROA(roa)
	}
	rp, err := NewRelyingParty(ta.Cert)
	if err != nil {
		t.Fatal(err)
	}
	rp.Now = tEval
	vrps, _ := runOnce(t, rp, repo)
	want := []VRP{{pfx("10.0.0.0/8"), 2, 8}, {pfx("10.0.0.0/16"), 1, 20}, {pfx("10.0.0.0/16"), 2, 16}, {pfx("10.0.0.0/16"), 2, 24}}
	if !reflect.DeepEqual(vrps, want) {
		t.Fatalf("VRPs %v, want %v", vrps, want)
	}
}
