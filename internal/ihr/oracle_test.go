package ihr_test

import (
	"context"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/hegemony"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/rov"
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
// returns — while settling far fewer, by the build's own counters. Both
// share the build's scoring, so each world is also scored by hand
// (scoredByHand), which shares none of it.
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
		byHand := scoredByHand(worldConfig(t, w, 1))
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
			if !reflect.DeepEqual(got, byHand) {
				t.Fatalf("world %d (seed %d, scale %v) workers=%d: dataset differs from hegemony.Scores over full-flood paths: %d/%d prefix-origins, %d/%d transits",
					wi, w.Config.Seed, w.Config.Scale, workers,
					len(got.PrefixOrigins), len(byHand.PrefixOrigins), len(got.Transits), len(byHand.Transits))
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

// scoredByHand is the dataset of a worldConfig computed the slow,
// independent way: one full flood per origination under
// ihr.PolicyFilter, the vantage points' PathFrom paths scored by
// hegemony.Scores and Ranked, and the tables sorted by their documented
// order. It shares no tree keys, templates, accumulator or index walk
// with BuildCtx. Only the build's prefix rule for IRR-InvalidASN pairs
// is reproduced: such a pair floods with the prefix of the first pair of
// its (origin, RPKI, IRR) class, since the filter-miss hash reads the
// prefix.
func scoredByHand(cfg ihr.Config) *ihr.Dataset {
	type class struct {
		origin    uint32
		rpki, irr rov.Status
	}
	floodPrefix := map[class]netx.Prefix{}
	filterFor := ihr.PolicyFilter(cfg.Graph, cfg.Policies, cfg.RPKI, cfg.IRR)
	prop := astopo.NewPropagator(cfg.Graph)
	ds := &ihr.Dataset{}
	for _, og := range cfg.Originations {
		rpkiS, irrS := cfg.RPKI.Validate(og.Prefix, og.Origin), cfg.IRR.Validate(og.Prefix, og.Origin)
		p := og.Prefix
		if irrS == rov.InvalidASN && len(cfg.Policies) > 0 {
			k := class{og.Origin, rpkiS, irrS}
			if first, ok := floodPrefix[k]; ok {
				p = first
			} else {
				floodPrefix[k] = p
			}
		}
		tree := prop.Propagate(p, og.Origin, filterFor(p, og.Origin))
		var paths [][]uint32
		for _, vp := range cfg.VantagePoints {
			if path := tree.PathFrom(vp); path != nil {
				paths = append(paths, path)
			}
		}
		ds.Visibility.Origs = append(ds.Visibility.Origs, og)
		ds.Visibility.Counts = append(ds.Visibility.Counts, int32(len(paths)))
		if len(paths) == 0 && !cfg.KeepInvisible {
			continue
		}
		ds.PrefixOrigins = append(ds.PrefixOrigins, ihr.PrefixOrigin{Prefix: og.Prefix, Origin: og.Origin, RPKI: rpkiS, IRR: irrS})
		for _, sc := range hegemony.Ranked(hegemony.Scores(paths, hegemony.DefaultTrim)) {
			if sc.ASN == og.Origin {
				continue
			}
			info, _ := tree.Info(sc.ASN)
			ds.Transits = append(ds.Transits, ihr.TransitRow{
				Prefix: og.Prefix, Origin: og.Origin, Transit: sc.ASN, Hegemony: sc.Hegemony,
				RPKI: rpkiS, IRR: irrS, FromCustomer: info.Class == astopo.ClassCustomer,
			})
		}
	}
	ds.Visibility.Normalize()
	sort.SliceStable(ds.PrefixOrigins, func(i, j int) bool {
		a, b := ds.PrefixOrigins[i], ds.PrefixOrigins[j]
		if a.Origin != b.Origin {
			return a.Origin < b.Origin
		}
		return a.Prefix.Compare(b.Prefix) < 0
	})
	sort.SliceStable(ds.Transits, func(i, j int) bool {
		a, b := ds.Transits[i], ds.Transits[j]
		if a.Origin != b.Origin {
			return a.Origin < b.Origin
		}
		if c := a.Prefix.Compare(b.Prefix); c != 0 {
			return c < 0
		}
		if a.Hegemony != b.Hegemony {
			return a.Hegemony > b.Hegemony
		}
		return a.Transit < b.Transit
	})
	return ds
}
