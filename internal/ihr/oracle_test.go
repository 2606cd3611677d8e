package ihr_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"manrsmeter/internal/ihr"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/synth"
)

// oracleWorlds generates the test worlds of the need-set oracle: per
// seed one world in the seed layout (per-prefix ROAs, map-backed prefix
// lists) and one in the internet-scale layout (arena prefixes, aggregate
// ROAs), both shrunk to a few hundred ASes.
func oracleWorlds(t *testing.T, seeds int) []*synth.World {
	t.Helper()
	var worlds []*synth.World
	for seed := int64(1); seed <= int64(seeds); seed++ {
		small := synth.NewConfig(seed)
		small.Tier1s, small.LargeISPs, small.MediumISPs, small.SmallASes, small.CDNs = 3, 2, 30, 220, 4
		small.MANRSSmall, small.MANRSMedium, small.MANRSLarge, small.MANRSCDNs = 25, 8, 2, 2
		large := synth.NewLargeConfig(seed)
		large.Tier1s, large.LargeISPs, large.MediumISPs, large.SmallASes, large.CDNs = 2, 3, 25, 180, 3
		large.MANRSSmall, large.MANRSMedium, large.MANRSLarge, large.MANRSCDNs = 20, 6, 1, 1
		for _, cfg := range []synth.Config{small, large} {
			w, err := synth.Generate(cfg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			worlds = append(worlds, w)
		}
	}
	return worlds
}

func worldConfig(t *testing.T, w *synth.World, workers int) ihr.Config {
	t.Helper()
	at := w.Date(w.Config.EndYear)
	view, err := w.At(context.Background(), at, workers)
	if err != nil {
		t.Fatal(err)
	}
	return ihr.Config{
		Graph: w.Graph, RPKI: view.RPKI, IRR: view.IRR, Policies: w.Policies,
		VantagePoints: w.VantagePoints, Originations: w.OriginationsAt(at), Workers: workers,
	}
}

func floodCounters() (floods, nodes int64) {
	return obsv.Default().Value("ihr_floods_total"), obsv.Default().Value("ihr_flood_nodes_total")
}

// Flooding only what the vantage points can see is one more redundant
// route to the same answer, so it gets an oracle: over many seeded
// worlds in both layouts, at one worker and at several, BuildCtx returns
// exactly the dataset a build that settles every AS on every flood
// returns — while settling far fewer, by the build's own counters.
func TestBuildMatchesFullFloodOracle(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	many := max(4, runtime.NumCPU())
	var full, restricted [2]int64 // floods, nodes settled
	for wi, w := range oracleWorlds(t, seeds) {
		f0, n0 := floodCounters()
		want, err := ihr.BuildFullFlood(context.Background(), worldConfig(t, w, 1))
		if err != nil {
			t.Fatal(err)
		}
		f1, n1 := floodCounters()
		full[0], full[1] = full[0]+f1-f0, full[1]+n1-n0
		if len(want.Transits) == 0 || want.Visibility.Len() == 0 {
			t.Fatalf("world %d (seed %d, scale %v): empty reference dataset", wi, w.Config.Seed, w.Config.Scale)
		}
		for _, workers := range []int{1, many} {
			f0, n0 := floodCounters()
			got, err := ihr.BuildCtx(context.Background(), worldConfig(t, w, workers))
			if err != nil {
				t.Fatal(err)
			}
			f1, n1 := floodCounters()
			if workers == 1 {
				restricted[0], restricted[1] = restricted[0]+f1-f0, restricted[1]+n1-n0
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("world %d (seed %d, scale %v, %d ASes) workers=%d: dataset differs from the full flood: %d/%d prefix-origins, %d/%d transits",
					wi, w.Config.Seed, w.Config.Scale, len(w.Graph.ASNs()), workers,
					len(got.PrefixOrigins), len(want.PrefixOrigins), len(got.Transits), len(want.Transits))
			}
		}
	}
	if full[0] == 0 || full[0] != restricted[0] {
		t.Fatalf("ihr_floods_total: %d floods for the full builds, %d for the restricted ones; want equal and non-zero", full[0], restricted[0])
	}
	fullPer, needPer := float64(full[1])/float64(full[0]), float64(restricted[1])/float64(restricted[0])
	t.Logf("%d floods: %.1f nodes settled per full flood, %.1f per restricted flood", full[0], fullPer, needPer)
	if needPer*3 > fullPer {
		t.Errorf("ihr_flood_nodes_total / ihr_floods_total = %.1f restricted vs %.1f full: want at least 3x fewer", needPer, fullPer)
	}
}
