package synth

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/durable"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpki"
)

// templateTestConfig is a world of about 270 ASes: every tree-key
// class and some churn, small enough to build at twelve dates many
// times over under the race detector.
func templateTestConfig(seed int64) Config {
	cfg := testConfig(seed)
	cfg.MediumISPs, cfg.SmallASes = 25, 230
	return cfg
}

// stabilityDates are core.Stability's twelve weekly dates: February 1
// to May 1 of the final study year, evenly spaced.
func stabilityDates(w *World) []time.Time {
	year := w.Config.EndYear
	start, end := time.Date(year, 2, 1, 0, 0, 0, 0, time.UTC), w.Date(year)
	dates := make([]time.Time, 12)
	for i := range dates {
		dates[i] = start.Add(time.Duration(i) * (end.Sub(start) / 11))
	}
	return dates
}

// archiveBytes is the dataset as the archive encodes it.
func archiveBytes(ds *ihr.Dataset) []byte {
	return durable.Encode(&durable.SnapshotData{PrefixOrigins: ds.PrefixOrigins, Transits: ds.Transits, Visibility: ds.Visibility})
}

// buildWith builds w's dataset at view's date through tab (nil: none).
func buildWith(w *World, view *View, workers int, tab *ihr.Templates) ([]byte, error) {
	ds, err := ihr.BuildCtx(context.Background(), ihr.Config{Graph: w.Graph, RPKI: view.RPKI, IRR: view.IRR,
		Policies: w.Policies, VantagePoints: w.VantagePoints, Originations: w.OriginationsAt(view.Date),
		Workers: workers, Templates: tab})
	if err != nil {
		return nil, err
	}
	return archiveBytes(ds), nil
}

func templateCounters() (floods, reuses int64) {
	return obsv.Default().Value("ihr_floods_total"), obsv.Default().Value("ihr_template_reuses_total")
}

// checkTemplatedDates fails unless builds of w at every date through
// tab have the archive bytes of builds without a table: first all
// dates at once over the table as it comes, as Stability's weeks share
// their world's table, then one by one over the now warm table, which
// must flood nothing.
func checkTemplatedDates(t *testing.T, w *World, tab *ihr.Templates, dates []time.Time, workers int) {
	t.Helper()
	views := make([]*View, len(dates))
	want := make([][]byte, len(dates))
	for i, at := range dates {
		var err error
		if views[i], err = w.At(context.Background(), at, workers); err != nil {
			t.Fatal(err)
		}
		if want[i], err = buildWith(w, views[i], workers, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]byte, len(dates))
	errs := make([]error, len(dates))
	var wg sync.WaitGroup
	for i := range dates {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = buildWith(w, views[i], workers, tab)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i, at := range dates {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%q, %d workers, %s, concurrent over a cold table: archive bytes differ from a build without one",
				w.Scenario(), workers, at.Format("2006-01-02"))
		}
	}
	floods, _ := templateCounters()
	for i, at := range dates {
		b, err := buildWith(w, views[i], workers, tab)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(b, want[i]) {
			t.Fatalf("%q, %d workers, %s, over a warm table: archive bytes differ from a build without one",
				w.Scenario(), workers, at.Format("2006-01-02"))
		}
	}
	if f, _ := templateCounters(); f != floods {
		t.Errorf("%q, %d workers: the warm table left %d floods to run", w.Scenario(), workers, f-floods)
	}
}

// The template table is one more route to the same dataset, so it gets
// an oracle: over seeded worlds, at every stability date, at one worker
// and two, cold and warm, a build through the table encodes exactly as
// a build without one. Run under -race: the cold pass shares one table
// between concurrent builds.
func TestTemplatesMatchTemplatelessBuilds(t *testing.T) {
	seeds := 5
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		w, err := Generate(templateTestConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			tab := ihr.NewTemplates(ihr.Config{Graph: w.Graph, Policies: w.Policies, VantagePoints: w.VantagePoints}, 1<<20)
			checkTemplatedDates(t, w, tab, stabilityDates(w), workers)
		}
	}
}

// A fork shares its base's table, and its mutations reach the build
// only through the statuses and originations the template key reads:
// after a published ROA, an added origination (a hijack of another
// origin's prefix, so an IRR-InvalidASN key) or a failed relying party,
// the fork's views build what a build without the table builds, and so
// does the base afterwards.
func TestForkTemplatesMatchTemplatelessBuilds(t *testing.T) {
	seeds := 5
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		w, err := Generate(templateTestConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		dates := stabilityDates(w)
		checkTemplatedDates(t, w, w.templates, dates, 2)

		// The hijacked prefix has a route object for its own origin, so
		// the hijack is IRR-InvalidASN: a prefix-keyed template.
		headline := w.Date(w.Config.EndYear)
		view, err := w.At(context.Background(), headline, 2)
		if err != nil {
			t.Fatal(err)
		}
		origs := w.OriginationsAt(headline)
		hijacker := origs[len(origs)-1].Origin
		i := slices.IndexFunc(origs, func(og astopo.Origination) bool {
			return og.Origin != hijacker && view.IRR.Validate(og.Prefix, hijacker) == rov.InvalidASN
		})
		if i < 0 {
			t.Fatalf("seed %d: no prefix whose hijack is IRR-InvalidASN", seed)
		}
		victim := origs[i]
		rir, err := RIRForPrefix(victim.Prefix)
		if err != nil {
			t.Fatal(err)
		}
		hijack := []rpki.ROAPrefix{{Prefix: victim.Prefix, MaxLength: victim.Prefix.Bits()}}
		forks := map[string]func(f *World) error{
			"publish-roa":     func(f *World) error { return f.PublishROA(rir, hijacker, hijack, w.Date(2011), w.Date(2040)) },
			"add-origination": func(f *World) error { return f.AddOrigination(hijacker, victim.Prefix) },
			"fail-rp":         func(f *World) error { f.FailRelyingParty(rir); return nil },
		}
		for name, mutate := range forks {
			f := w.Fork(name)
			if err := mutate(f); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if f.templates != w.templates {
				t.Fatalf("%s: the fork has a table of its own", name)
			}
			checkTemplatedDates(t, f, f.templates, dates, 2)
		}
		checkTemplatedDates(t, w, w.templates, dates, 1)
	}
}

// The reuse counter is how an operator sees the table work: a world's
// first date floods every key, and its second takes templates instead.
func TestTemplateReusesCountedOnSecondDate(t *testing.T) {
	w := generate(t, 2)
	dates := stabilityDates(w)
	floods0, reuses0 := templateCounters()
	datasetAt(t, w, dates[11])
	floods1, reuses1 := templateCounters()
	if floods1 == floods0 || reuses1 != reuses0 {
		t.Fatalf("first date: %d floods, %d reuses; want floods only", floods1-floods0, reuses1-reuses0)
	}
	datasetAt(t, w, dates[10])
	floods2, reuses2 := templateCounters()
	if reuses2 == reuses1 || floods2-floods1 >= floods1-floods0 {
		t.Fatalf("second date: %d floods, %d reuses; first date flooded %d", floods2-floods1, reuses2-reuses1, floods1-floods0)
	}
}
