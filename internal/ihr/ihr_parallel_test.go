package ihr

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/rov"
)

// richConfig originates a spread of prefixes with mixed statuses so the
// dataset has many rows to merge, in (origin, prefix) order.
func richConfig(t *testing.T) Config {
	t.Helper()
	var origs []astopo.Origination
	for _, og := range []struct {
		asn uint32
		p   string
	}{
		{3, "10.3.0.0/16"}, {4, "10.4.0.0/16"},
		{5, "10.5.0.0/16"}, {5, "10.5.1.0/24"}, {5, "10.50.0.0/16"},
		{6, "10.5.2.0/24"}, {6, "10.6.0.0/16"},
	} {
		origs = append(origs, astopo.Origination{Prefix: pfx(og.p), Origin: og.asn})
	}
	rpkiIx := mustIndex(t,
		rov.Authorization{Prefix: pfx("10.5.0.0/16"), ASN: 5, MaxLength: 24},
		rov.Authorization{Prefix: pfx("10.6.0.0/16"), ASN: 6, MaxLength: 16},
	)
	irrIx := mustIndex(t,
		rov.Authorization{Prefix: pfx("10.3.0.0/16"), ASN: 777, MaxLength: 16},
	)
	return Config{
		Graph:         topo(t),
		Originations:  origs,
		RPKI:          rpkiIx,
		IRR:           irrIx,
		Policies:      map[uint32]Policy{4: {DropRPKIInvalid: true}},
		VantagePoints: []uint32{2, 3, 6},
		KeepInvisible: true,
	}
}

func TestBuildIdenticalAcrossWorkerCounts(t *testing.T) {
	cfg := richConfig(t)
	cfg.Workers = 1
	base, err := BuildCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 0} {
		cfg := cfg
		cfg.Workers = workers
		ds, err := BuildCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ds.PrefixOrigins, base.PrefixOrigins) {
			t.Errorf("workers=%d: PrefixOrigins differ from workers=1", workers)
		}
		if !reflect.DeepEqual(ds.Transits, base.Transits) {
			t.Errorf("workers=%d: Transits differ from workers=1", workers)
		}
		if !reflect.DeepEqual(ds.Visibility, base.Visibility) {
			t.Errorf("workers=%d: Visibility differs from workers=1", workers)
		}
	}
}

func TestBuildTransitsTotallyOrdered(t *testing.T) {
	ds, err := BuildCtx(context.Background(), richConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Transits) < 2 {
		t.Fatalf("fixture produced only %d transit rows", len(ds.Transits))
	}
	for i := 1; i < len(ds.Transits); i++ {
		a, b := ds.Transits[i-1], ds.Transits[i]
		switch {
		case a.Origin != b.Origin:
			if a.Origin > b.Origin {
				t.Fatalf("row %d: origins out of order: %d > %d", i, a.Origin, b.Origin)
			}
		case a.Prefix.Compare(b.Prefix) != 0:
			if a.Prefix.Compare(b.Prefix) > 0 {
				t.Fatalf("row %d: prefixes out of order: %v > %v", i, a.Prefix, b.Prefix)
			}
		case a.Hegemony != b.Hegemony:
			if a.Hegemony < b.Hegemony {
				t.Fatalf("row %d: hegemony ascending: %v < %v", i, a.Hegemony, b.Hegemony)
			}
		default:
			if a.Transit >= b.Transit {
				t.Fatalf("row %d: transit ASNs out of order: %d >= %d", i, a.Transit, b.Transit)
			}
		}
	}
}

// A build reads the originations it is given and no others: the graph
// holds none.
func TestBuildOriginationsOverride(t *testing.T) {
	cfg := richConfig(t)
	full, err := BuildCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Originations = cfg.Originations[:2]
	partial, err := BuildCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(partial.PrefixOrigins) != 2 || len(full.PrefixOrigins) <= 2 {
		t.Errorf("override ignored: partial=%d full=%d rows",
			len(partial.PrefixOrigins), len(full.PrefixOrigins))
	}
}

// Originations out of (origin, prefix) order, or repeated, skip the
// in-order fast path and are sorted: the tables are the ordered build's,
// each row repeated once per copy of its origination, at any worker
// count.
func TestBuildUnorderedOriginations(t *testing.T) {
	cfg := richConfig(t)
	ordered, err := BuildCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := cfg.Originations
	copies := map[astopo.Origination]int{}
	var input []astopo.Origination
	for i, og := range all {
		n := 1 + i%3 // one, two or three copies
		copies[og] = n
		for range n {
			input = append(input, og)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(input), func(i, j int) { input[i], input[j] = input[j], input[i] })

	var wantPO []PrefixOrigin
	for _, po := range ordered.PrefixOrigins {
		for range copies[astopo.Origination{Prefix: po.Prefix, Origin: po.Origin}] {
			wantPO = append(wantPO, po)
		}
	}
	var wantTR []TransitRow
	for _, tr := range ordered.Transits {
		for range copies[astopo.Origination{Prefix: tr.Prefix, Origin: tr.Origin}] {
			wantTR = append(wantTR, tr)
		}
	}
	for _, workers := range []int{1, 4} {
		cfg := cfg
		cfg.Originations, cfg.Workers = input, workers
		ds, err := BuildCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ds.PrefixOrigins, wantPO) {
			t.Errorf("workers=%d: PrefixOrigins %v, want %v", workers, ds.PrefixOrigins, wantPO)
		}
		if !reflect.DeepEqual(ds.Transits, wantTR) {
			t.Errorf("workers=%d: Transits %v, want %v", workers, ds.Transits, wantTR)
		}
		if !reflect.DeepEqual(ds.Visibility, ordered.Visibility) {
			t.Errorf("workers=%d: Visibility %v, want %v", workers, ds.Visibility, ordered.Visibility)
		}
	}
}
