package rpki

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// hostileRepo publishes, side by side, every certificate shape the chain
// walk has a special case for, and under each signer enough ROAs that
// several workers are checking them at once: the cross-signed diamond in
// its poisoning order, a cycle with no path to the anchor, a subject
// with an expired and a live certificate, a live certificate under an
// expired intermediate, a certificate whose public key is too short, a
// sound ISP every third ROA of which was altered after signing, and two
// straight chains whose deepest CA sits 33 and 34 issuances below the
// anchor, published from the anchor down or, with bottomUp, from the
// deepest CA up. It returns the repository, its anchor and the number of
// ROAs that must validate.
func hostileRepo(t *testing.T, perSigner int, bottomUp bool) (*Repository, *Certificate, int) {
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
	var chainCerts []*Certificate
	chain := func(depth int) *CA {
		ca := ta
		for d := 1; d <= depth; d++ {
			ca = issue(ca, fmt.Sprintf("DEEP%d-%d", depth, d), t1)
			chainCerts = append(chainCerts, ca.Cert)
		}
		return ca
	}

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
	deep33, deep34 := chain(33), chain(34)
	if bottomUp {
		slices.Reverse(chainCerts)
	}

	repo := &Repository{}
	for _, c := range append([]*Certificate{sa.Cert, b1.Cert, b2.Cert, x, y, dupOld.Cert, dupNew.Cert, leaf.Cert, mid.Cert, short, isp.Cert}, chainCerts...) {
		repo.AddCert(c)
	}
	want := 0
	for s, signer := range []struct {
		ca    *CA
		valid bool
	}{{b1, true}, {b2, true}, {sa, true}, {&CA{Cert: x, key: donor.key}, false}, {dupOld, false}, {dupNew, true},
		{leaf, false}, {&CA{Cert: short, key: ta.key}, false}, {isp, true}, {ta, true}, {deep33, true}, {deep34, false}} {
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
	repo, anchor, want := hostileRepo(t, perSigner, false)
	vrps, stats := runWarmAndCold(t, NewVerdictMemo(1024), repo, tEval, 0, anchor)
	if len(vrps) != want || stats.ROAsValid != want || stats.ROAsRejected != repo.NumROAs()-want {
		t.Fatalf("%d VRPs, stats %+v; want %d valid ROAs of %d", len(vrps), stats, want, repo.NumROAs())
	}
	// Valid: both IB certificates, SA, the live DUP, ISP, SHORT, and the
	// first 33 CAs of each deep chain. Rejected: the cycle, the expired
	// DUP, MID and LEAF under it, and the 34th CA of the deeper chain.
	// SHORT is validly signed; it is what SHORT signs that fails.
	if stats.CertsValid != 6+33+33 || stats.CertsRejected != 5+1 {
		t.Fatalf("certificate stats %+v, want %d valid and %d rejected", stats, 6+33+33, 5+1)
	}
}

// The depth cap counts issuances below the anchor along the shortest
// valid chain, so the order certificates were published in cannot move
// it: a CA 33 below the anchor signs valid ROAs and one 34 below is
// rejected with everything it signed, whether its chain is published
// from the anchor down or from the deepest CA up, at 1 and 8 workers,
// memo warm and cold.
func TestChainDepthCapIndependentOfOrder(t *testing.T) {
	const perSigner = 3
	var firstVRPs []VRP
	var firstStats ValidationStats
	for _, bottomUp := range []bool{false, true} {
		repo, anchor, want := hostileRepo(t, perSigner, bottomUp)
		vrps, stats := runWarmAndCold(t, NewVerdictMemo(1024), repo, tEval, 0, anchor)
		if len(vrps) != want || stats.CertsValid != 6+33+33 || stats.CertsRejected != 5+1 {
			t.Fatalf("bottomUp=%v: %d VRPs, stats %+v; want %d VRPs, %d certificates valid and %d rejected",
				bottomUp, len(vrps), stats, want, 6+33+33, 5+1)
		}
		if !bottomUp {
			firstVRPs, firstStats = vrps, stats
		} else if !reflect.DeepEqual(vrps, firstVRPs) || stats != firstStats {
			t.Fatalf("bottom-up publication: %d VRPs %+v; top-down: %d VRPs %+v", len(vrps), stats, len(firstVRPs), firstStats)
		}
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
	repo, anchor, want := hostileRepo(t, 20, false)
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
