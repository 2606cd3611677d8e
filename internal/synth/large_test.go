package synth

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
)

// miniLargeConfig shrinks the internet-scale preset to test size while
// keeping Scale = ScaleLarge, so the arena/aggregate path runs.
func miniLargeConfig(seed int64) Config {
	cfg := NewLargeConfig(seed)
	cfg.Tier1s = 3
	cfg.LargeISPs = 3
	cfg.MediumISPs = 50
	cfg.SmallASes = 500
	cfg.CDNs = 6
	cfg.MANRSSmall = 50
	cfg.MANRSMedium = 15
	cfg.MANRSLarge = 2
	cfg.MANRSCDNs = 3
	return cfg
}

func TestCoverRange(t *testing.T) {
	block := netx.MustParsePrefix("10.0.0.0/16")
	const bits = 24 // 256 indexes
	for _, tc := range []struct{ lo, hi int }{
		{0, 256}, {0, 1}, {0, 7}, {0, 200}, {3, 200}, {17, 18}, {0, 0}, {255, 256},
	} {
		cover, err := coverRange(block, bits, tc.lo, tc.hi)
		if err != nil {
			t.Fatalf("coverRange[%d,%d): %v", tc.lo, tc.hi, err)
		}
		// Expand the cover back to /24 indexes: aligned prefixes covering
		// exactly [lo, hi), in order, no overlap.
		next := tc.lo
		for _, p := range cover {
			if p.Bits() < block.Bits() || p.Bits() > bits {
				t.Fatalf("coverRange[%d,%d): prefix %s outside depth range", tc.lo, tc.hi, p)
			}
			span := 1 << uint(bits-p.Bits())
			if next%span != 0 {
				t.Fatalf("coverRange[%d,%d): %s (span %d) misaligned at index %d", tc.lo, tc.hi, p, span, next)
			}
			want := block
			if p.Bits() > block.Bits() {
				var err error
				want, err = block.NthSubprefix(p.Bits(), uint64(next/span))
				if err != nil {
					t.Fatal(err)
				}
			}
			if p != want {
				t.Fatalf("coverRange[%d,%d): got %s at index %d, want %s", tc.lo, tc.hi, p, next, want)
			}
			next += span
		}
		if next != tc.hi {
			t.Fatalf("coverRange[%d,%d): covered up to %d", tc.lo, tc.hi, next)
		}
	}
	// Full range collapses to the block itself.
	cover, err := coverRange(block, bits, 0, 256)
	if err != nil || len(cover) != 1 || cover[0] != block {
		t.Fatalf("full coverRange = %v, %v; want [%s]", cover, err, block)
	}
	if _, err := coverRange(block, bits, 0, 257); err == nil {
		t.Fatal("out-of-range coverRange did not error")
	}
}

func TestLargeScaleWorld(t *testing.T) {
	// Seed 28 yields every RPKI and IRR status class at this mini size.
	w, err := Generate(miniLargeConfig(28))
	if err != nil {
		t.Fatalf("Generate(ScaleLarge): %v", err)
	}
	// Every origin of the table is an AS of the graph.
	for _, og := range w.originations().rows {
		if w.Graph.AS(og.Origin) == nil {
			t.Fatalf("announcing AS%d missing from graph", og.Origin)
		}
	}

	// The point-in-time view must be ordered (ascending origin, then
	// prefix) — the contract OriginationsAt documents.
	asOf := w.Date(w.Config.EndYear)
	ogs := w.OriginationsAt(asOf)
	if len(ogs) == 0 {
		t.Fatal("no originations")
	}
	for i := 1; i < len(ogs); i++ {
		a, b := ogs[i-1], ogs[i]
		if a.Origin > b.Origin || (a.Origin == b.Origin && a.Prefix.Compare(b.Prefix) >= 0) {
			t.Fatalf("originations unordered at %d: %v then %v", i, a, b)
		}
	}

	// Aggregate registration must still produce the full spread of RPKI
	// and IRR outcomes the analysis buckets on.
	view, err := w.At(context.Background(), asOf, 0)
	if err != nil {
		t.Fatalf("At: %v", err)
	}
	rpkiIx, irrIx := view.RPKI, view.IRR
	rpkiSeen := map[rov.Status]int{}
	irrSeen := map[rov.Status]int{}
	for _, og := range ogs {
		rpkiSeen[rpkiIx.Validate(og.Prefix, og.Origin)]++
		irrSeen[irrIx.Validate(og.Prefix, og.Origin)]++
	}
	all := []rov.Status{rov.Valid, rov.NotFound, rov.InvalidASN, rov.InvalidLength}
	for _, st := range all {
		if rpkiSeen[st] == 0 {
			t.Errorf("no origination classified RPKI %v (got %v)", st, rpkiSeen)
		}
		if irrSeen[st] == 0 {
			t.Errorf("no origination classified IRR %v (got %v)", st, irrSeen)
		}
	}

	// The compact world must drive the full dataset build.
	ds, err := view.Dataset(context.Background(), 2)
	if err != nil {
		t.Fatalf("Dataset: %v", err)
	}
	if ds.Visibility.Len() != len(ogs) {
		t.Fatalf("dataset tracks %d originations, world has %d", ds.Visibility.Len(), len(ogs))
	}
	// PrefixOrigins omits zero-visibility routes (filtered everywhere);
	// together with those it must account for every origination.
	invisible := 0
	for _, c := range ds.Visibility.Counts {
		if c == 0 {
			invisible++
		}
	}
	if len(ds.PrefixOrigins)+invisible != len(ogs) {
		t.Fatalf("dataset has %d prefix-origins + %d invisible, world has %d originations",
			len(ds.PrefixOrigins), invisible, len(ogs))
	}
	if len(ds.Transits) == 0 || ds.Visibility.Len() == 0 {
		t.Fatalf("dataset missing transits (%d) or visibility (%d)", len(ds.Transits), ds.Visibility.Len())
	}
}

func TestLargeScaleDeterministic(t *testing.T) {
	w1, err := Generate(miniLargeConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(miniLargeConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	asOf := w1.Date(w1.Config.EndYear)
	o1, o2 := w1.OriginationsAt(asOf), w2.OriginationsAt(asOf)
	if len(o1) != len(o2) {
		t.Fatalf("origination counts differ: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("origination %d differs: %v vs %v", i, o1[i], o2[i])
		}
	}
	if w1.Fingerprint() != w2.Fingerprint() {
		t.Fatalf("fingerprints differ: %s vs %s", w1.Fingerprint(), w2.Fingerprint())
	}
	// Seed- and large-scale worlds of otherwise equal counts must not
	// collide: Scale is part of the config identity.
	seedCfg := miniLargeConfig(7)
	seedCfg.Scale = ScaleSeed
	w3, err := Generate(seedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if w3.Fingerprint() == w1.Fingerprint() {
		t.Fatal("ScaleSeed and ScaleLarge worlds share a fingerprint")
	}
}

// A large-layout world registers its compact IRR rows in the order it
// draws them, AS by AS: block, exact /24s, then the stale tail. The
// rows of every database, in order, hash to the digest of the
// row-at-a-time registration that preceded presized databases.
func TestLargeIRRRowsInDrawOrder(t *testing.T) {
	w, err := Generate(miniLargeConfig(28))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	rows := 0
	for _, db := range w.IRRRegistry.Databases() {
		fmt.Fprintln(h, db.Name)
		for _, r := range db.Routes() {
			fmt.Fprintln(h, r.Prefix, r.Origin)
			rows++
		}
	}
	if got := h.Sum64(); got != largeIRRDigest {
		t.Fatalf("IRR rows (%d) hash to %#x, want %#x", rows, got, largeIRRDigest)
	}
}

const largeIRRDigest = 0x6618cdd8c9d1ab03
