package ihr

import (
	"context"
	"reflect"
	"testing"

	"manrsmeter/internal/rov"
)

// richTopo originates a spread of prefixes with mixed statuses so the
// dataset has many rows to merge.
func richConfig(t *testing.T) Config {
	t.Helper()
	g := topo(t)
	for _, og := range []struct {
		asn uint32
		p   string
	}{
		{5, "10.5.0.0/16"}, {5, "10.5.1.0/24"}, {5, "10.50.0.0/16"},
		{6, "10.6.0.0/16"}, {6, "10.5.2.0/24"},
		{3, "10.3.0.0/16"}, {4, "10.4.0.0/16"},
	} {
		if err := g.Originate(og.asn, pfx(og.p)); err != nil {
			t.Fatal(err)
		}
	}
	rpkiIx := mustIndex(t,
		rov.Authorization{Prefix: pfx("10.5.0.0/16"), ASN: 5, MaxLength: 24},
		rov.Authorization{Prefix: pfx("10.6.0.0/16"), ASN: 6, MaxLength: 16},
	)
	irrIx := mustIndex(t,
		rov.Authorization{Prefix: pfx("10.3.0.0/16"), ASN: 777, MaxLength: 16},
	)
	return Config{
		Graph:         g,
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

func TestBuildOriginationsOverride(t *testing.T) {
	cfg := richConfig(t)
	full, err := BuildCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := cfg.Graph.Originations()
	cfg.Originations = all[:2]
	partial, err := BuildCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(partial.PrefixOrigins) != 2 || len(full.PrefixOrigins) <= 2 {
		t.Errorf("override ignored: partial=%d full=%d rows",
			len(partial.PrefixOrigins), len(full.PrefixOrigins))
	}
	// The full set passed explicitly must reproduce the default build.
	cfg.Originations = all
	explicit, err := BuildCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(explicit, full) {
		t.Error("explicit full origination list should equal the default build")
	}
}
