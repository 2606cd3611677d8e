package ihr_test

import (
	"context"
	"maps"
	"reflect"
	"slices"
	"testing"

	"manrsmeter/internal/ihr"
	"manrsmeter/internal/obsv"
)

func reuseCounter() int64 { return obsv.Default().Value("ihr_template_reuses_total") }

// buildBoth builds cfg without a table and through tab, fails unless
// the datasets are equal, and returns the floods and reuses of the
// build through tab.
func buildBoth(t *testing.T, name string, cfg ihr.Config, tab *ihr.Templates) (floods, reuses int64) {
	t.Helper()
	cfg.Templates = nil
	want, err := ihr.BuildCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	f0, _ := floodCounters()
	r0 := reuseCounter()
	cfg.Templates = tab
	got, err := ihr.BuildCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the build through the table differs from one without", name)
	}
	f1, _ := floodCounters()
	return f1 - f0, reuseCounter() - r0
}

// A table answers only builds of the config it was made for: another
// graph, other policies (a different map, or its own map changed after
// the table was made), other vantage points, another trim, or its own
// graph with a relationship added each build as if there were no table,
// and leave it as it was. Equal content in other maps and slices is the
// same config.
func TestTemplatesIgnoreOtherConfigs(t *testing.T) {
	worlds := oracleWorlds(t, 2) // seed 1 and seed 2, each in both layouts
	w, other := worlds[0], worlds[2]
	cfg := worldConfig(t, w, 1)
	cfg.Policies = maps.Clone(w.Policies) // the test's own, to change in place
	tab := ihr.NewTemplates(cfg, 1<<20)
	keys, _ := buildBoth(t, "cold", cfg, tab)
	held := tab.Len()
	if keys == 0 || int64(held) != keys {
		t.Fatalf("cold build: %d floods, table holds %d", keys, held)
	}

	same := cfg
	same.Policies = maps.Clone(cfg.Policies)
	same.VantagePoints = slices.Clone(cfg.VantagePoints)
	same.Trim = 0.1 // hegemony.DefaultTrim spelled out
	if floods, reuses := buildBoth(t, "equal content", same, tab); floods != 0 || reuses != keys {
		t.Fatalf("equal content: %d floods, %d reuses; want 0 and %d", floods, reuses, keys)
	}

	var pol uint32
	for asn := range cfg.Policies {
		pol = asn
		break
	}
	otherPolicies := maps.Clone(cfg.Policies)
	delete(otherPolicies, pol)
	otherGraph := worldConfig(t, other, 1)
	otherGraph.Policies, otherGraph.VantagePoints = cfg.Policies, cfg.VantagePoints
	variants := map[string]ihr.Config{
		"other graph":          otherGraph,
		"other policies":       func() ihr.Config { c := cfg; c.Policies = otherPolicies; return c }(),
		"other vantage points": func() ihr.Config { c := cfg; c.VantagePoints = cfg.VantagePoints[1:]; return c }(),
		"other trim":           func() ihr.Config { c := cfg; c.Trim = 0.2; return c }(),
	}
	check := func(name string, c ihr.Config) {
		t.Helper()
		if _, reuses := buildBoth(t, name, c, tab); reuses != 0 || tab.Len() != held {
			t.Fatalf("%s: %d reuses, table holds %d; want 0 and %d", name, reuses, tab.Len(), held)
		}
	}
	for name, c := range variants {
		check(name, c)
	}

	// Nor does a table's first build bind it to another graph.
	fresh := ihr.NewTemplates(cfg, 1<<20)
	if buildBoth(t, "other graph, fresh table", otherGraph, fresh); fresh.Len() != 0 {
		t.Fatalf("a build over another graph filled a fresh table with %d templates", fresh.Len())
	}

	saved := cfg.Policies[pol]
	cfg.Policies[pol] = ihr.Policy{DropRPKIInvalid: !saved.DropRPKIInvalid}
	check("policies changed in place", cfg)
	cfg.Policies[pol] = saved

	// The relationship is new: the last AS is a stub no tier-1 serves.
	asns := w.Graph.ASNs()
	if err := w.Graph.SetProviderCustomer(asns[0], asns[len(asns)-1]); err != nil {
		t.Fatal(err)
	}
	check("graph with a relationship added", cfg)
}

// A table holds at most its limit: a build past it floods what the
// table lacks and stores nothing more, and its dataset does not change.
func TestTemplatesStopInsertingAtCap(t *testing.T) {
	const limit = 5
	cfg := worldConfig(t, oracleWorlds(t, 1)[0], 2)
	tab := ihr.NewTemplates(cfg, limit)
	keys, reuses := buildBoth(t, "cold", cfg, tab)
	if keys <= limit || reuses != 0 || tab.Len() != limit {
		t.Fatalf("cold build: %d floods, %d reuses, table holds %d; want > %d, 0, %d", keys, reuses, tab.Len(), limit, limit)
	}
	floods, reuses := buildBoth(t, "full table", cfg, tab)
	if floods != keys-limit || reuses != limit || tab.Len() != limit {
		t.Fatalf("over a full table: %d floods, %d reuses, table holds %d; want %d, %d, %d",
			floods, reuses, tab.Len(), keys-limit, limit, limit)
	}
}
