package rpki

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// hostileRepo publishes, side by side, every certificate shape the chain
// walk has a special case for, and under each signer enough ROAs that
// several workers are checking them at once: the cross-signed diamond in
// its poisoning order, a cycle with no path to the anchor, a subject
// with an expired and a live certificate, a live certificate under an
// expired intermediate, a certificate whose public key is too short, and
// a sound ISP every third ROA of which was altered after signing. It
// returns the repository, its anchor and the number of ROAs that must
// validate.
func hostileRepo(t *testing.T, perSigner int) (*Repository, *Certificate, int) {
	t.Helper()
	all := prefixes("10.0.0.0/8")
	ta := newAnchor(t, RIPE, "10.0.0.0/8")
	issue := func(ca *CA, subject string, notAfter time.Time) *CA {
		sub, err := ca.IssueCA(subject, all, t0, notAfter)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	expiry := tEval.AddDate(0, -1, 0)

	b2 := issue(ta, "IB", t1)
	sa := issue(b2, "SA", t1)
	b1 := issue(sa, "IB", t1)
	donor := newAnchor(t, APNIC, "10.0.0.0/8") // a keypair no anchor vouches for
	x := &Certificate{SubjectName: "X", IssuerName: "Y", PublicKey: donor.Cert.PublicKey, Resources: all, NotBefore: t0, NotAfter: t1}
	y := &Certificate{SubjectName: "Y", IssuerName: "X", PublicKey: donor.Cert.PublicKey, Resources: all, NotBefore: t0, NotAfter: t1}
	x.Signature = ed25519.Sign(donor.key, x.payload())
	y.Signature = ed25519.Sign(donor.key, y.payload())
	dupOld := issue(ta, "DUP", expiry)
	dupNew := issue(ta, "DUP", t1)
	mid := issue(ta, "MID", expiry)
	leaf := issue(mid, "LEAF", t1)
	short := &Certificate{SubjectName: "SHORT", IssuerName: "RIPE", PublicKey: make(ed25519.PublicKey, 16), Resources: all, NotBefore: t0, NotAfter: t1}
	short.Signature = ed25519.Sign(ta.key, short.payload())
	isp := issue(ta, "ISP", t1)

	repo := &Repository{}
	for _, c := range []*Certificate{sa.Cert, b1.Cert, b2.Cert, x, y, dupOld.Cert, dupNew.Cert, leaf.Cert, mid.Cert, short, isp.Cert} {
		repo.AddCert(c)
	}
	want := 0
	for s, signer := range []struct {
		ca    *CA
		valid bool
	}{{b1, true}, {b2, true}, {sa, true}, {&CA{Cert: x, key: donor.key}, false}, {dupOld, false}, {dupNew, true},
		{leaf, false}, {&CA{Cert: short, key: ta.key}, false}, {isp, true}, {ta, true}} {
		for i := 0; i < perSigner; i++ {
			roa, err := signer.ca.SignROA(uint32(64500+i), []ROAPrefix{{Prefix: pfx(fmt.Sprintf("10.%d.%d.0/24", s, i)), MaxLength: 24}}, t0, t1)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case signer.ca == isp && i%3 == 0:
				roa.ASN = 666
			case signer.valid:
				want++
			}
			repo.AddROA(roa)
		}
	}
	return repo, ta.Cert, want
}

// The worker count changes who checks a ROA, never the answer: the
// hostile repository validates the same, VRP for VRP and stat for stat,
// serially and at 8 workers, with a memo and without.
func TestHostileRepositoryAtEveryWorkerCount(t *testing.T) {
	const perSigner = 40
	repo, anchor, want := hostileRepo(t, perSigner)
	vrps, stats := runWarmAndCold(t, NewVerdictMemo(1024), repo, tEval, 0, anchor)
	if len(vrps) != want || stats.ROAsValid != want || stats.ROAsRejected != 10*perSigner-want {
		t.Fatalf("%d VRPs, stats %+v; want %d valid ROAs of %d", len(vrps), stats, want, 10*perSigner)
	}
	// Valid: both IB certificates, SA, the live DUP, ISP. Rejected: the
	// cycle, the expired DUP, MID and LEAF under it. SHORT is validly
	// signed; it is what SHORT signs that fails.
	if stats.CertsValid != 6 || stats.CertsRejected != 5 {
		t.Fatalf("certificate stats %+v, want 6 valid and 5 rejected", stats)
	}
}

// cancelAfter is a context that reports cancellation from its n'th Err
// call on. The fan-out asks once before each item, so it stops a run
// after a known number of ROAs at any worker count.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// A run cut short returns the cause and nothing else: VRPs for the ROAs
// it did reach would read as "no ROA covers this route" for the rest.
// What it verified stays in the memo, and the next run is whole.
func TestCancelledRunYieldsNoVRPs(t *testing.T) {
	repo, anchor, want := hostileRepo(t, 20)
	for _, workers := range []int{1, 8} {
		for _, after := range []int64{0, 1, 57, int64(repo.NumROAs()) - 1} {
			memo := NewVerdictMemo(1024)
			rp, err := NewRelyingPartyMemo(memo, anchor)
			if err != nil {
				t.Fatal(err)
			}
			rp.Now = tEval
			ctx := &cancelAfter{Context: context.Background()}
			ctx.left.Store(after)
			vrps, stats, err := rp.Run(ctx, repo, workers)
			if !errors.Is(err, context.Canceled) || vrps != nil || stats != (ValidationStats{}) {
				t.Fatalf("%d workers, cancelled after %d ROAs: %d VRPs, stats %+v, err %v; want none and context.Canceled",
					workers, after, len(vrps), stats, err)
			}
			if vrps, _, err = rp.Run(context.Background(), repo, workers); err != nil || len(vrps) != want {
				t.Fatalf("%d workers, run after a cancelled one: %d VRPs (err %v), want %d", workers, len(vrps), err, want)
			}
		}
	}
}
