package rpki

import (
	"context"
	"crypto/ed25519"
	"reflect"
	"testing"
	"time"

	"manrsmeter/internal/obsv"
	"manrsmeter/internal/rpki/edwards25519"
)

// runWarmAndCold is the relying party's oracle: it runs over repo on one
// goroutine without a memo, then at 1 and 8 workers without one and
// twice with memo — which earlier calls may have warmed with other dates
// or objects — and fails the test unless every run agrees with the first
// VRP for VRP and stat for stat. It returns that first result.
func runWarmAndCold(t *testing.T, memo *VerdictMemo, repo *Repository, now time.Time, lag time.Duration, anchors ...*Certificate) ([]VRP, ValidationStats) {
	t.Helper()
	run := func(m *VerdictMemo, workers int) ([]VRP, ValidationStats) {
		rp, err := NewRelyingPartyMemo(m, anchors...)
		if err != nil {
			t.Fatal(err)
		}
		rp.Now = now
		rp.ROAVisibilityLag = lag
		vrps, stats, err := rp.Run(context.Background(), repo, workers)
		if err != nil {
			t.Fatal(err)
		}
		return vrps, stats
	}
	wantVRPs, wantStats := run(nil, 1)
	for _, workers := range []int{1, 8} {
		for _, pass := range []struct {
			name string
			memo *VerdictMemo
		}{{"memo-less", nil}, {"first memo", memo}, {"repeat memo", memo}} {
			gotVRPs, gotStats := run(pass.memo, workers)
			if !reflect.DeepEqual(gotVRPs, wantVRPs) || gotStats != wantStats {
				t.Fatalf("%s run, %d workers, at %s: %d VRPs %+v, serial memo-less run: %d VRPs %+v",
					pass.name, workers, now.Format(time.RFC3339), len(gotVRPs), gotStats, len(wantVRPs), wantStats)
			}
		}
	}
	return wantVRPs, wantStats
}

func newPublicKey() ed25519.PublicKey {
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		panic(err)
	}
	return pub
}

// sigChecks returns the process-wide signature-check counters.
func sigChecks() (hit, miss int64) { return mSigHit.Value(), mSigMiss.Value() }

// memoFixture is anchor → ISP → two ROAs, plus one ROA signed by the
// anchor itself.
type memoFixture struct {
	ta, isp  *CA
	repo     *Repository
	ispROA   *ROA
	otherROA *ROA
}

func newMemoFixture(t *testing.T) *memoFixture {
	t.Helper()
	f := &memoFixture{ta: newAnchor(t, RIPE, "10.0.0.0/8"), repo: &Repository{}}
	var err error
	if f.isp, err = f.ta.IssueCA("ISP", prefixes("10.1.0.0/16"), t0, t1); err != nil {
		t.Fatal(err)
	}
	f.repo.AddCert(f.isp.Cert)
	sign := func(ca *CA, asn uint32, p string) *ROA {
		roa, err := ca.SignROA(asn, []ROAPrefix{{Prefix: pfx(p), MaxLength: 24}}, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		f.repo.AddROA(roa)
		return roa
	}
	f.ispROA = sign(f.isp, 64500, "10.1.0.0/17")
	f.otherROA = sign(f.isp, 64501, "10.1.128.0/17")
	sign(f.ta, 64502, "10.2.0.0/16")
	return f
}

// A run that finds every verdict in the memo performs no Ed25519
// verification, and the counters say so: the first run misses once per
// signature, the repeat hits as often.
func TestVerdictMemoCountsHitsAndMisses(t *testing.T) {
	f := newMemoFixture(t)
	memo := NewVerdictMemo(64)
	run := func() (hits, misses int64) {
		h0, m0 := sigChecks()
		rp, err := NewRelyingPartyMemo(memo, f.ta.Cert)
		if err != nil {
			t.Fatal(err)
		}
		rp.Now = tEval
		if vrps, _ := runOnce(t, rp, f.repo); len(vrps) != 3 {
			t.Fatalf("vrps = %v", vrps)
		}
		h1, m1 := sigChecks()
		return h1 - h0, m1 - m0
	}
	// Five distinct triples: the anchor's self-signature (checked at
	// construction and again by Run), the ISP certificate, three ROAs.
	if hits, misses := run(); misses != 5 || hits != 1 {
		t.Fatalf("cold run: %d hits %d misses, want 1 and 5", hits, misses)
	}
	if memo.Len() != 5 {
		t.Fatalf("memo holds %d verdicts, want 5", memo.Len())
	}
	if hits, misses := run(); misses != 0 || hits != 6 {
		t.Fatalf("warm run: %d hits %d misses, want 6 and 0", hits, misses)
	}
}

// After a run has memoised an object, changing any of the three byte
// strings its verdict depends on must miss the memo and be rejected.
func TestVerdictMemoFailsClosedOnTamper(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(f *memoFixture)
		// wantVRPs is how many of the three VRPs survive.
		wantVRPs int
	}{
		{"signature byte flipped", func(f *memoFixture) {
			f.ispROA.Signature[7] ^= 0x01
		}, 2},
		{"payload ASN changed", func(f *memoFixture) {
			f.ispROA.ASN = 666
		}, 2},
		{"payload max length changed", func(f *memoFixture) {
			f.ispROA.Prefixes[0].MaxLength = 17
		}, 2},
		{"payload window extended", func(f *memoFixture) {
			f.ispROA.NotAfter = t1.AddDate(10, 0, 0)
		}, 2},
		{"signer's key swapped", func(f *memoFixture) {
			// The certificate no longer verifies under the anchor, and
			// both ROAs it signed fall with it.
			f.isp.Cert.PublicKey = newPublicKey()
		}, 1},
		{"signer's key swapped and certificate re-issued", func(f *memoFixture) {
			// The certificate is good again, so its ROAs are checked: same
			// payload and signature bytes as the memo saw, another key.
			f.isp.Cert.PublicKey = newPublicKey()
			f.isp.Cert.Signature = ed25519.Sign(f.ta.key, f.isp.Cert.payload())
		}, 1},
		{"certificate resources widened", func(f *memoFixture) {
			f.isp.Cert.Resources = prefixes("10.0.0.0/8")
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newMemoFixture(t)
			memo := NewVerdictMemo(64)
			if vrps, _ := runWarmAndCold(t, memo, f.repo, tEval, 0, f.ta.Cert); len(vrps) != 3 {
				t.Fatalf("untampered: vrps = %v", vrps)
			}
			tc.tamper(f)
			vrps, stats := runWarmAndCold(t, memo, f.repo, tEval, 0, f.ta.Cert)
			if len(vrps) != tc.wantVRPs {
				t.Fatalf("after tamper: %d VRPs %+v, want %d", len(vrps), stats, tc.wantVRPs)
			}
		})
	}
}

// A bad signature is remembered as bad, never as good, and an anchor
// whose self-signature a memo has seen still fails construction once the
// signature is damaged.
func TestVerdictMemoBadStaysBad(t *testing.T) {
	f := newMemoFixture(t)
	f.otherROA.ASN = 666 // tampered before any run
	memo := NewVerdictMemo(64)
	for i := 0; i < 3; i++ {
		if vrps, stats := runWarmAndCold(t, memo, f.repo, tEval, 0, f.ta.Cert); len(vrps) != 2 || stats.ROAsRejected != 1 {
			t.Fatalf("run %d: vrps=%v stats=%+v", i, vrps, stats)
		}
	}
	bad := *f.ta.Cert
	bad.Signature = append([]byte(nil), bad.Signature...)
	bad.Signature[0] ^= 0xFF
	if _, err := NewRelyingPartyMemo(memo, &bad); err == nil {
		t.Fatal("anchor with a damaged self-signature accepted by a warm memo")
	}
}

// Only signature verdicts are remembered: a memo warmed inside the
// validity windows does not carry a ROA past its expiry, through a
// visibility lag, or past its signer's expiry.
func TestVerdictMemoRemembersNoDates(t *testing.T) {
	f := newMemoFixture(t)
	memo := NewVerdictMemo(64)
	for _, tc := range []struct {
		now  time.Time
		lag  time.Duration
		want int
	}{
		{tEval, 0, 3},
		{t1.Add(time.Nanosecond), 0, 0},
		{t0.Add(-time.Nanosecond), 0, 0},
		{tEval, 365 * 24 * time.Hour, 0},
		{t1, 0, 3},
	} {
		if vrps, _ := runWarmAndCold(t, memo, f.repo, tc.now, tc.lag, f.ta.Cert); len(vrps) != tc.want {
			t.Errorf("now=%s lag=%s: %d VRPs, want %d", tc.now.Format(time.RFC3339), tc.lag, len(vrps), tc.want)
		}
	}
}

// A full memo stops growing and keeps answering correctly: what it does
// not hold is verified on every run.
func TestVerdictMemoCap(t *testing.T) {
	f := newMemoFixture(t)
	f.otherROA.Signature[0] ^= 0x01
	memo := NewVerdictMemo(2)
	for i := 0; i < 3; i++ {
		if vrps, stats := runWarmAndCold(t, memo, f.repo, tEval, 0, f.ta.Cert); len(vrps) != 2 || stats.ROAsRejected != 1 {
			t.Fatalf("run %d: vrps=%v stats=%+v", i, vrps, stats)
		}
		if memo.Len() != 2 {
			t.Fatalf("run %d: memo holds %d verdicts, cap is 2", i, memo.Len())
		}
	}
	// Past the cap, tampering with an object the memo never held is
	// still caught.
	f.ispROA.ASN = 666
	if vrps, _ := runWarmAndCold(t, memo, f.repo, tEval, 0, f.ta.Cert); len(vrps) != 1 {
		t.Fatalf("tamper past the cap: vrps=%v", vrps)
	}
	h0, _ := sigChecks()
	runWarmAndCold(t, NewVerdictMemo(0), f.repo, tEval, 0, f.ta.Cert)
	if h1, _ := sigChecks(); h1 != h0 {
		t.Fatalf("a zero-capacity memo answered %d checks", h1-h0)
	}
}

// A certificate the anchor really signed may still carry a public key of
// the wrong size, or one off the curve; objects under it are rejected,
// with or without a memo, rather than panicking the relying party, and
// the key gets no table however many objects it signs.
func TestShortPublicKeyFailsClosed(t *testing.T) {
	offCurve := make(ed25519.PublicKey, ed25519.PublicKeySize)
	for offCurve[0] = 2; ; offCurve[0]++ {
		if _, err := edwards25519.NewPublicKey(offCurve); err != nil {
			break
		}
	}
	for _, pub := range []ed25519.PublicKey{make(ed25519.PublicKey, 16), make(ed25519.PublicKey, 31), make(ed25519.PublicKey, 33), offCurve} {
		ta := newAnchor(t, RIPE, "10.0.0.0/8")
		bad := &Certificate{SubjectName: "BAD", IssuerName: "RIPE", PublicKey: pub,
			Resources: prefixes("10.1.0.0/16"), NotBefore: t0, NotAfter: t1}
		bad.Signature = ed25519.Sign(ta.key, bad.payload())
		repo := &Repository{}
		repo.AddCert(bad)
		const roas = 2 * prepareAt
		for i := 0; i < roas; i++ {
			repo.AddROA(&ROA{SignerName: "BAD", ASN: uint32(64500 + i), Prefixes: []ROAPrefix{{Prefix: pfx("10.1.0.0/16"), MaxLength: 16}},
				NotBefore: t0, NotAfter: t1, Signature: make([]byte, ed25519.SignatureSize)})
		}
		memo := NewVerdictMemo(1024)
		vrps, stats := runWarmAndCold(t, memo, repo, tEval, 0, ta.Cert)
		if len(vrps) != 0 || stats.CertsValid != 1 || stats.ROAsRejected != roas {
			t.Fatalf("%d-byte key %x: vrps=%v stats=%+v", len(pub), pub, vrps, stats)
		}
		if slots, held := tablesBuilt(memo); slots != 0 || held != 0 {
			t.Fatalf("%d-byte key %x: %d table slots, %d held", len(pub), pub, slots, held)
		}
	}
}

// A run is one rpki.run span whose attributes say what it did: its ROAs,
// its signature checks the memo answered and those it verified, the
// tables it built and the kernel it verified on.
func TestRunSpanAttributes(t *testing.T) {
	repo, anchor := oneIssuer(t, prepareAt+8)
	tracer := obsv.NewTracer()
	ctx := obsv.ContextWithTracer(context.Background(), tracer)
	rp, err := NewRelyingPartyMemo(NewVerdictMemo(1<<10), anchor)
	if err != nil {
		t.Fatal(err)
	}
	rp.Now = tEval
	for _, want := range []map[string]string{
		// The anchor again (a hit), the issuer's certificate and 40 ROAs
		// under one key, which gets its table before the first check.
		{"roas": "40", "hits": "1", "misses": "41", "tables": "1", "kernel": edwards25519.Kernel()},
		{"roas": "40", "hits": "42", "misses": "0", "tables": "0", "kernel": edwards25519.Kernel()},
	} {
		tracer.Reset()
		if _, _, err := rp.Run(ctx, repo, 2); err != nil {
			t.Fatal(err)
		}
		events := tracer.Events()
		if len(events) != 1 || events[0].Name != "rpki.run" || events[0].Wall() <= 0 {
			t.Fatalf("spans %+v, want one ended rpki.run", events)
		}
		for k, v := range want {
			if got := events[0].Attr(k); got != v {
				t.Errorf("rpki.run %s = %q, want %q", k, got, v)
			}
		}
	}
}
