package synth

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"manrsmeter/internal/ihr"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpki"
)

// datasetAt is the world's dataset at t, through its view.
func datasetAt(t testing.TB, w *World, at time.Time) *ihr.Dataset {
	t.Helper()
	view, err := w.At(context.Background(), at, 0)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := view.Dataset(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// uncachedDataset is the route At replaces, spelled out: a raw
// relying-party run, indexes built from it, and ihr.BuildCtx over those.
func uncachedDataset(t *testing.T, w *World, at time.Time) ([]rpki.VRP, *ihr.Dataset) {
	t.Helper()
	vrps, err := w.VRPsAtCtx(context.Background(), at, 1)
	if err != nil {
		t.Fatal(err)
	}
	rpkiIx, err := rpki.BuildIndex(vrps)
	if err != nil {
		t.Fatal(err)
	}
	irrIx, err := w.IRRRegistry.Index()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ihr.BuildCtx(context.Background(), ihr.Config{Graph: w.Graph, RPKI: rpkiIx, IRR: irrIx, Policies: w.Policies,
		VantagePoints: w.VantagePoints, Originations: w.OriginationsAt(at), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return vrps, ds
}

// checkView fails unless w's view at at, taken at the given worker
// count, equals the uncached route; it returns the view.
func checkView(t *testing.T, w *World, at time.Time, workers int) *View {
	t.Helper()
	view, err := w.At(context.Background(), at, workers)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := view.Dataset(context.Background(), workers)
	if err != nil {
		t.Fatal(err)
	}
	wantVRPs, wantDS := uncachedDataset(t, w, at)
	wantRPKI, _ := rpki.BuildIndex(wantVRPs)
	wantIRR, _ := w.IRRRegistry.Index()
	switch {
	case !view.Date.Equal(at):
		t.Fatalf("%q: view dated %s, asked for %s", w.Scenario(), view.Date, at)
	case !reflect.DeepEqual(view.VRPs, wantVRPs):
		t.Fatalf("%q %s, %d workers: view has %d VRPs, raw run %d", w.Scenario(), at.Format("2006-01-02"), workers, len(view.VRPs), len(wantVRPs))
	case !reflect.DeepEqual(view.RPKI.All(), wantRPKI.All()), !reflect.DeepEqual(view.IRR.All(), wantIRR.All()):
		t.Fatalf("%q %s, %d workers: view's indexes differ from indexes built from the raw run", w.Scenario(), at.Format("2006-01-02"), workers)
	case !reflect.DeepEqual(ds, wantDS):
		t.Fatalf("%q %s, %d workers: view's dataset differs from ihr.BuildCtx over the raw run (%d vs %d prefix-origins)",
			w.Scenario(), at.Format("2006-01-02"), workers, len(ds.PrefixOrigins), len(wantDS.PrefixOrigins))
	}
	return view
}

// At is one more redundant route to the same answer, so it gets the
// memo's oracle: over the same seeded worlds, for the base and a fork of
// each RPKI mutation kind, at 1, 2 and 8 workers, the view equals the
// uncached route — VRPs, both indexes and the dataset — and a repeat
// call returns the same view and the same dataset without building.
func TestAtMatchesUncachedRoute(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, workers := range []int{1, 2, 8} {
			w := memoTestWorld(t, seed) // a fresh world per count: a view is built once
			for _, f := range append([]*World{w}, scenarioForks(t, w)...) {
				for _, at := range []time.Time{w.Date(w.Config.EndYear), w.Date(2019)} {
					view := checkView(t, f, at, workers)
					again, err := f.At(context.Background(), at, workers)
					if err != nil || again != view {
						t.Fatalf("seed %d fork %q: second At returned another view (err %v)", seed, f.Scenario(), err)
					}
					ds1, _ := view.Dataset(context.Background(), workers)
					if ds2, _ := again.Dataset(context.Background(), 1); ds1 != ds2 {
						t.Fatalf("seed %d fork %q: second Dataset built again", seed, f.Scenario())
					}
				}
			}
		}
	}
}

// Trie and linear route origin validation are one more pair of routes to
// the same answer. Over the seeded worlds, at the headline date, both of
// a view's indexes give the linear scan's verdict for every origination,
// for the same prefix from origin + 1, and for one more-specific prefix
// of it.
func TestValidateMatchesLinearOnWorlds(t *testing.T) {
	seen := make(map[rov.Status]int)
	for seed := int64(1); seed <= 20; seed++ {
		w := memoTestWorld(t, seed)
		at := w.Date(w.Config.EndYear)
		view, err := w.At(context.Background(), at, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range w.OriginationsAt(at) {
			type query struct {
				p   netx.Prefix
				asn uint32
			}
			queries := []query{{o.Prefix, o.Origin}, {o.Prefix, o.Origin + 1}}
			famBits := 32
			if o.Prefix.Is6() {
				famBits = 128
			}
			if bits := min(o.Prefix.Bits()+1+int(o.Origin%4), famBits); bits > o.Prefix.Bits() {
				more, err := o.Prefix.NthSubprefix(bits, 0)
				if err != nil {
					t.Fatal(err)
				}
				queries = append(queries, query{more, o.Origin})
			}
			for _, ix := range []struct {
				name string
				*rov.Index
			}{{"RPKI", view.RPKI}, {"IRR", view.IRR}} {
				for _, q := range queries {
					got, want := ix.Validate(q.p, q.asn), ix.ValidateLinear(q.p, q.asn)
					if got != want {
						t.Fatalf("seed %d %s: Validate(%s, AS%d) = %s, linear scan %s", seed, ix.name, q.p, q.asn, got, want)
					}
					seen[got]++
				}
			}
		}
	}
	for _, s := range []rov.Status{rov.Valid, rov.InvalidASN, rov.InvalidLength, rov.NotFound} {
		if seen[s] == 0 {
			t.Errorf("no query came out %s; the worlds are not exercising it (%v)", s, seen)
		}
	}
}

// A mutation empties the cache: the next At describes the mutated world,
// and the view taken before still describes the world as it was.
func TestMutationInvalidatesViews(t *testing.T) {
	w := memoTestWorld(t, 5).Fork("mutate-after-at")
	at := w.Date(w.Config.EndYear)
	before := checkView(t, w, at, 2)
	w.SetROAVisibilityLag(400 * 24 * time.Hour)
	after := checkView(t, w, at, 2)
	if after == before {
		t.Fatal("At returned the view taken before the mutation")
	}
	if len(after.VRPs) >= len(before.VRPs) {
		t.Fatalf("a 400-day ROA lag left %d of %d VRPs; the mutation is not visible", len(after.VRPs), len(before.VRPs))
	}
}

// A cancelled At or Dataset returns the cause and remembers nothing, so
// the next call with a live context starts over and succeeds.
func TestCancelledAtCachesNothing(t *testing.T) {
	w := memoTestWorld(t, 4)
	at := w.Date(w.Config.EndYear)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.At(dead, at, 2); err == nil {
		t.Fatal("At with a cancelled context succeeded")
	}
	if len(w.views) != 0 {
		t.Fatalf("cancelled At left %d views cached", len(w.views))
	}
	view, err := w.At(context.Background(), at, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view.Dataset(dead, 2); err == nil {
		t.Fatal("Dataset with a cancelled context succeeded")
	}
	if view.ds.Load() != nil {
		t.Fatal("cancelled Dataset was kept")
	}
	checkView(t, w, at, 2)
}

// The cache holds ViewCacheCap dates, oldest out first, except the
// headline, which stays however old it is.
func TestViewCacheIsBounded(t *testing.T) {
	w := memoTestWorld(t, 2)
	headline := w.Date(w.Config.EndYear)
	v0, _ := w.At(context.Background(), headline, 1)
	week1, _ := w.At(context.Background(), headline.AddDate(0, 0, -7), 1)
	for i := 2; i <= ViewCacheCap; i++ {
		if _, err := w.At(context.Background(), headline.AddDate(0, 0, -7*i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.views) != ViewCacheCap || len(w.viewDates) != ViewCacheCap {
		t.Fatalf("cache holds %d views (%d dates), cap %d", len(w.views), len(w.viewDates), ViewCacheCap)
	}
	if again, _ := w.At(context.Background(), headline, 1); again != v0 {
		t.Fatal("the headline view was evicted")
	}
	if again, _ := w.At(context.Background(), headline.AddDate(0, 0, -7), 1); again == week1 {
		t.Fatal("the oldest other view survived ViewCacheCap newer dates")
	}
}

// An adopted view serves its date without a relying-party run or a
// dataset build, and answers like the view the archive was taken from.
func TestAdoptServesWithoutBuilding(t *testing.T) {
	src, dst := memoTestWorld(t, 9), memoTestWorld(t, 9)
	at := src.Date(src.Config.EndYear)
	built := checkView(t, src, at, 2)
	ds, _ := built.Dataset(context.Background(), 2)

	h0, m0 := sigChecks()
	adopted, err := dst.Adopt(at, built.RPKI.All(), built.IRR.All(), ds)
	if err != nil {
		t.Fatal(err)
	}
	view, err := dst.At(context.Background(), at, 2)
	if err != nil || view != adopted {
		t.Fatalf("At after Adopt returned another view (err %v)", err)
	}
	if got, _ := view.Dataset(context.Background(), 2); got != ds {
		t.Fatal("Dataset after Adopt is not the adopted dataset")
	}
	if h1, m1 := sigChecks(); h1 != h0 || m1 != m0 {
		t.Fatalf("adoption checked %d signatures", h1-h0+m1-m0)
	}
	if !reflect.DeepEqual(view.RPKI.All(), built.RPKI.All()) || !reflect.DeepEqual(view.IRR.All(), built.IRR.All()) || len(view.VRPs) != len(built.VRPs) {
		t.Fatal("adopted view's registries differ from the source's")
	}
	// A date that already has a view keeps it and only gains the dataset.
	fresh := memoTestWorld(t, 9)
	own, _ := fresh.At(context.Background(), at, 1)
	if kept, _ := fresh.Adopt(at, built.RPKI.All(), built.IRR.All(), ds); kept != own {
		t.Fatal("Adopt replaced an existing view")
	}
	if got, _ := own.Dataset(context.Background(), 1); got != ds {
		t.Fatal("an existing view without a dataset did not take the adopted one")
	}
}

// Snapshot builds, scenario runs and Stability ask for the same date at
// once, on a base world and on forks that write the same signature
// memo, and name their world while they do. Every caller of one world
// gets one view, one dataset and the world's one fingerprint. Run under
// -race.
func TestAtConcurrentBaseAndForks(t *testing.T) {
	w := memoTestWorld(t, 3)
	forks := scenarioForks(t, w)
	worlds := []*World{w, forks[0], forks[2]} // base, as0-roa, expired-ca
	fps := make([]string, len(worlds))
	for i, f := range worlds {
		fps[i] = f.Fingerprint()
	}
	at := w.Date(w.Config.EndYear)
	const callers = 6
	views := make([]*View, len(worlds)*callers)
	sets := make([]*ihr.Dataset, len(views))
	var wg sync.WaitGroup
	for slot := range views {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			view, err := worlds[slot/callers].At(context.Background(), at, 2)
			if err != nil {
				t.Error(err)
				return
			}
			if got := worlds[slot/callers].Fingerprint(); got != fps[slot/callers] {
				t.Errorf("fingerprint read %s beside At, %s before", got, fps[slot/callers])
			}
			views[slot] = view
			if sets[slot], err = view.Dataset(context.Background(), 2); err != nil {
				t.Error(err)
			}
		}(slot)
	}
	wg.Wait()
	for slot := range views {
		if first := slot / callers * callers; views[slot] != views[first] || sets[slot] != sets[first] {
			t.Fatalf("world %q: caller %d got its own view or dataset", worlds[slot/callers].Scenario(), slot%callers)
		}
	}
	for _, f := range worlds {
		checkView(t, f, at, 2)
	}
}
