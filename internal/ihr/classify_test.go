package ihr_test

import (
	"context"
	"testing"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
)

// checkClassify compares the build's prefix-ordered classification of
// origs, at one worker and at three, with Index.Validate per
// origination, and every linearEvery-th verdict also with
// ValidateLinear, the scan that shares no lookup code with either.
func checkClassify(t *testing.T, name string, origs []astopo.Origination, rpkiIx, irrIx *rov.Index, linearEvery int) {
	t.Helper()
	n := 0
	validate := func(ix *rov.Index, og astopo.Origination) rov.Status {
		if ix == nil {
			return rov.NotFound
		}
		if n++; n%linearEvery != 0 {
			return ix.Validate(og.Prefix, og.Origin)
		}
		if got, want := ix.Validate(og.Prefix, og.Origin), ix.ValidateLinear(og.Prefix, og.Origin); got != want {
			t.Fatalf("%s: %s AS%d Validate %v, ValidateLinear %v", name, og.Prefix, og.Origin, got, want)
		}
		return ix.Validate(og.Prefix, og.Origin)
	}
	for _, workers := range []int{1, 3} {
		rpkiS, irrS, err := ihr.Classify(context.Background(), origs, rpkiIx, irrIx, workers)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, og := range origs {
			if want := validate(rpkiIx, og); rpkiS[i] != want {
				t.Fatalf("%s, %d workers: %s AS%d RPKI %v, Validate %v", name, workers, og.Prefix, og.Origin, rpkiS[i], want)
			}
			if want := validate(irrIx, og); irrS[i] != want {
				t.Fatalf("%s, %d workers: %s AS%d IRR %v, Validate %v", name, workers, og.Prefix, og.Origin, irrS[i], want)
			}
		}
	}
}

// The build classifies originations in one prefix-ordered walk over each
// registry instead of one search per origination; on 20 seeded worlds in
// both layouts every verdict equals Index.Validate's (and a sample of
// them a linear scan's).
func TestClassifyMatchesValidate(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 2
	}
	for _, w := range oracleWorlds(t, seeds) {
		cfg := worldConfig(t, w, 1)
		checkClassify(t, w.Fingerprint(), cfg.Originations, cfg.RPKI, cfg.IRR, 64)
	}
}

// A hand-built origination list mixing IPv4, IPv6 and 4-in-6 prefixes,
// in (origin, prefix) order as views feed it and with duplicates, over
// registries holding nested authorizations of every family; and the
// same list against no IRR at all.
func TestClassifyMixedFamilies(t *testing.T) {
	rpkiIx, irrIx := rov.NewIndex(), rov.NewIndex()
	add := func(ix *rov.Index, p string, asn uint32, maxLen int) {
		if err := ix.Add(rov.Authorization{Prefix: netx.MustParsePrefix(p), ASN: asn, MaxLength: maxLen}); err != nil {
			t.Fatal(err)
		}
	}
	add(rpkiIx, "10.0.0.0/8", 1, 16)
	add(rpkiIx, "10.1.0.0/16", 2, 24)
	add(rpkiIx, "2001:db8::/32", 1, 48)
	add(rpkiIx, "2001:db8:1::/48", 3, 48)
	add(rpkiIx, "::ffff:10.0.0.0/104", 2, 120)
	add(rpkiIx, "::ffff:10.1.0.0/112", 1, 112)
	add(irrIx, "10.0.0.0/8", 1, 8)
	add(irrIx, "2001:db8::/32", 2, 32)
	add(irrIx, "::ffff:10.0.0.0/104", 1, 104)
	var origs []astopo.Origination
	for _, o := range []struct {
		origin uint32
		prefix string
	}{
		{1, "10.0.0.0/8"}, {1, "10.1.0.0/16"}, {1, "10.1.2.0/24"}, {1, "192.0.2.0/24"},
		{1, "2001:db8::/32"}, {1, "2001:db8:1::/48"}, {1, "::ffff:10.0.0.0/104"}, {1, "::ffff:10.1.0.0/112"},
		{2, "10.1.0.0/16"}, {2, "10.1.2.0/24"}, {2, "2001:db8::/32"}, {2, "2001:db8:ffff::/48"},
		{2, "::ffff:10.1.2.0/120"}, {2, "::ffff:10.1.2.0/120"}, {3, "2001:db8:1::/48"}, {3, "2001:db8:1:2::/64"},
		{3, "::ffff:192.0.2.0/120"}, {4, "0.0.0.0/0"}, {4, "::/0"},
	} {
		origs = append(origs, astopo.Origination{Prefix: netx.MustParsePrefix(o.prefix), Origin: o.origin})
	}
	checkClassify(t, "mixed", origs, rpkiIx, irrIx, 1)
	checkClassify(t, "mixed, no IRR", origs, rpkiIx, nil, 1)
}
