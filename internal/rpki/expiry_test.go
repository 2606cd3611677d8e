package rpki

import (
	"crypto/ed25519"
	"strings"
	"testing"
	"time"

	"manrsmeter/internal/netx"
)

// Validity windows are inclusive at both instants (RFC 5280 §4.1.2.5:
// "not valid ... after"): an object is valid at exactly NotBefore and at
// exactly NotAfter, and invalid one nanosecond outside either bound.
func TestValidityBoundaryInstants(t *testing.T) {
	ta := newAnchor(t, RIPE, "10.0.0.0/8")
	roa, err := ta.SignROA(64500, []ROAPrefix{{Prefix: pfx("10.1.0.0/16"), MaxLength: 16}}, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	repo := &Repository{}
	repo.AddROA(roa)

	cases := []struct {
		name  string
		now   time.Time
		valid bool
	}{
		{"at notBefore", t0, true},
		{"1ns before notBefore", t0.Add(-time.Nanosecond), false},
		{"at notAfter", t1, true},
		{"1ns after notAfter", t1.Add(time.Nanosecond), false},
		{"inside window", tEval, true},
	}
	for _, tc := range cases {
		rp, err := NewRelyingParty(ta.Cert)
		if err != nil {
			t.Fatal(err)
		}
		rp.Now = tc.now
		vrps, stats := runOnce(t, rp, repo)
		if got := len(vrps) == 1; got != tc.valid {
			t.Errorf("%s: valid=%v want %v (stats %+v)", tc.name, got, tc.valid, stats)
		}
	}
}

// A delegated CA that was valid when the scenario started but is expired
// at evaluation time must invalidate every dependent ROA, even when the
// ROA's own window still contains the evaluation time.
func TestDelegatedCAExpiredAtEvaluation(t *testing.T) {
	ta := newAnchor(t, RIPE, "10.0.0.0/8")
	caEnd := time.Date(2022, 4, 1, 0, 0, 0, 0, time.UTC)
	isp, err := ta.IssueCA("ISP", prefixes("10.1.0.0/16"), t0, caEnd)
	if err != nil {
		t.Fatal(err)
	}
	// ROA window spans the whole year; only the signer's cert expires.
	roa, err := isp.SignROA(64500, []ROAPrefix{{Prefix: pfx("10.1.0.0/16"), MaxLength: 24}}, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	repo := &Repository{}
	repo.AddCert(isp.Cert)
	repo.AddROA(roa)

	memo := NewVerdictMemo(64) // warmed while the chain is valid, consulted after it expires
	run := func(now time.Time) (int, ValidationStats) {
		vrps, stats := runWarmAndCold(t, memo, repo, now, 0, ta.Cert)
		return len(vrps), stats
	}

	// Scenario start: chain fully valid.
	if n, stats := run(time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)); n != 1 || stats.CertsValid != 1 {
		t.Fatalf("before CA expiry: vrps=%d stats=%+v", n, stats)
	}
	// Exactly at the CA's notAfter instant: still valid (inclusive).
	if n, _ := run(caEnd); n != 1 {
		t.Fatal("chain must be valid at the CA notAfter instant")
	}
	// Evaluation after the CA expired: dependent ROA must drop.
	if n, stats := run(tEval); n != 0 || stats.CertsRejected != 1 || stats.ROAsRejected != 1 {
		t.Fatalf("after CA expiry: vrps=%d stats=%+v (ROA must be invalidated)", n, stats)
	}
}

// prefixes is a small helper for resource lists in this file.
func prefixes(ss ...string) []netx.Prefix {
	var out []netx.Prefix
	for _, s := range ss {
		out = append(out, pfx(s))
	}
	return out
}

// Renewal/cross-signing diamond: subject "IB" holds two certificates —
// B2 issued by the anchor and B1 cross-signed by the mid-chain CA "SA",
// which itself chains through B2. Validating A(=SA) first walks into B1,
// which cycles back into the still-visiting A. The old validator
// memoized that provisional rejection permanently, so whether B1 (and
// every ROA it signed) validated depended on repository publication
// order. Both orders must yield the same, correct answer.
func TestCrossSignedDiamondOrderIndependence(t *testing.T) {
	res := prefixes("10.0.0.0/8")
	for _, order := range []string{"poisoning", "benign"} {
		ta := newAnchor(t, RIPE, "10.0.0.0/8")
		b2, err := ta.IssueCA("IB", res, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		sa, err := b2.IssueCA("SA", res, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		b1, err := sa.IssueCA("IB", res, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		// ROA signed by B1's key; the other "IB" candidate (B2) fails the
		// signature check, so validation must reach B1's verdict.
		roa, err := b1.SignROA(64500, []ROAPrefix{{Prefix: pfx("10.9.0.0/16"), MaxLength: 16}}, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		repo := &Repository{}
		if order == "poisoning" {
			// SA first: its issuer candidates for "IB" are tried in
			// publication order, so B1 is visited while SA is provisional.
			repo.AddCert(sa.Cert)
			repo.AddCert(b1.Cert)
			repo.AddCert(b2.Cert)
		} else {
			repo.AddCert(b2.Cert)
			repo.AddCert(sa.Cert)
			repo.AddCert(b1.Cert)
		}
		repo.AddROA(roa)
		vrps, stats := runWarmAndCold(t, NewVerdictMemo(64), repo, tEval, 0, ta.Cert)
		if len(vrps) != 1 {
			t.Errorf("%s order: vrps=%d want 1 (stats %+v)", order, len(vrps), stats)
		}
		if stats.CertsValid != 3 || stats.CertsRejected != 0 {
			t.Errorf("%s order: cert stats %+v, want 3 valid", order, stats)
		}
	}
}

// A genuinely unreachable cycle must still be rejected (the fix must not
// turn cycle breaking into cycle acceptance), and the depth cap must
// hold.
func TestCertificateCycleStillRejected(t *testing.T) {
	ta := newAnchor(t, RIPE, "10.0.0.0/8")
	// Two certs signing each other with no path to the anchor.
	other := newAnchor(t, APNIC, "10.0.0.0/8") // unused as anchor; donor of a keypair
	a := &Certificate{SubjectName: "X", IssuerName: "Y", PublicKey: other.Cert.PublicKey,
		Resources: prefixes("10.0.0.0/8"), NotBefore: t0, NotAfter: t1}
	b := &Certificate{SubjectName: "Y", IssuerName: "X", PublicKey: other.Cert.PublicKey,
		Resources: prefixes("10.0.0.0/8"), NotBefore: t0, NotAfter: t1}
	a.Signature = ed25519.Sign(other.key, a.payload())
	b.Signature = ed25519.Sign(other.key, b.payload())
	repo := &Repository{}
	repo.AddCert(a)
	repo.AddCert(b)
	_, stats := runWarmAndCold(t, NewVerdictMemo(64), repo, tEval, 0, ta.Cert)
	if stats.CertsValid != 0 || stats.CertsRejected != 2 {
		t.Fatalf("cycle with no anchor path must be rejected: %+v", stats)
	}
}

// TestROAVisibilityLag covers the ROA-propagation-delay model: a ROA
// inside its own validity window stays invisible until
// NotBefore+ROAVisibilityLag, and becomes visible at exactly that
// instant.
func TestROAVisibilityLag(t *testing.T) {
	ta := newAnchor(t, RIPE, "10.0.0.0/8")
	created := time.Date(2022, 4, 15, 0, 0, 0, 0, time.UTC)
	roa, err := ta.SignROA(64500, []ROAPrefix{{Prefix: pfx("10.1.0.0/16"), MaxLength: 16}}, created, t1)
	if err != nil {
		t.Fatal(err)
	}
	repo := &Repository{}
	repo.AddROA(roa)
	const lag = 30 * 24 * time.Hour

	run := func(now time.Time, lag time.Duration) int {
		rp, err := NewRelyingParty(ta.Cert)
		if err != nil {
			t.Fatal(err)
		}
		rp.Now = now
		rp.ROAVisibilityLag = lag
		vrps, _ := runOnce(t, rp, repo)
		return len(vrps)
	}

	if n := run(tEval, 0); n != 1 {
		t.Fatalf("no lag: vrps=%d want 1", n)
	}
	if n := run(tEval, lag); n != 0 {
		t.Fatalf("May 1 eval with 30d lag on Apr 15 ROA: vrps=%d want 0 (not yet visible)", n)
	}
	if n := run(created.Add(lag), lag); n != 1 {
		t.Fatalf("at exactly NotBefore+lag: vrps=%d want 1", n)
	}
	if n := run(created.Add(lag-time.Nanosecond), lag); n != 0 {
		t.Fatalf("1ns before NotBefore+lag: vrps=%d want 0", n)
	}
}

func TestReadVRPCSVCaps(t *testing.T) {
	// Oversized line.
	long := "h\nuri,AS1,10.0.0.0/8,8," + strings.Repeat("x", MaxVRPCSVLine+1) + ",\n"
	if _, err := ReadVRPCSV(strings.NewReader(long)); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized line: err=%v, want explicit line-length error", err)
	}
	// Too many fields.
	many := "h\nuri,AS1,10.0.0.0/8,8" + strings.Repeat(",", MaxVRPCSVFields) + "\n"
	if _, err := ReadVRPCSV(strings.NewReader(many)); err == nil || !strings.Contains(err.Error(), "fields") {
		t.Errorf("too many fields: err=%v, want explicit field-cap error", err)
	}
	// Max length outside the family range.
	for _, row := range []string{
		"h\nuri,AS1,10.0.0.0/8,33,,\n",          // > 32 for v4
		"h\nuri,AS1,10.0.0.0/8,4,,\n",           // < prefix length
		"h\nuri,AS1,2001:db8::/32,129,,\n",      // > 128 for v6
		"h\nuri,AS1,10.0.0.0/8,-1,,\n",          // negative
		"h\nuri,AS1,10.0.0.0/8,8abc,,\n",        // trailing junk (Sscanf used to accept this)
		"h\nuri,AS99999999999,10.0.0.0/8,8,,\n", // ASN overflows uint32
	} {
		if _, err := ReadVRPCSV(strings.NewReader(row)); err == nil {
			t.Errorf("row %q should fail", row)
		}
	}
	// v6 max length at the family bound parses.
	got, err := ReadVRPCSV(strings.NewReader("h\nuri,AS1,2001:db8::/32,128,,\n"))
	if err != nil || len(got) != 1 || got[0].MaxLength != 128 {
		t.Errorf("v6 /128 max: %v err %v", got, err)
	}
}
