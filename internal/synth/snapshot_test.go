package synth

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
	"time"

	"manrsmeter/internal/astopo"
)

// snapshotDates returns the headline date plus a mid-churn date (when
// the §8.5 leak windows are open) for the generated world.
func snapshotDates(w *World) (headline, midChurn time.Time) {
	year := w.Config.EndYear
	return w.Date(year), time.Date(year, 3, 10, 0, 0, 0, 0, time.UTC)
}

// rowFilterOriginationsAt derives OriginationsAt by brute force, as its
// oracle: one window check per row of the world's origination table,
// written out here rather than window.covers, and no run copied whole.
// It shares the table with the code under test (the rows, their order
// and their windows), so it checks the filter, not what generation or
// LoadFiles put in the table; the goldens and TestSnapshotChurn check
// those.
func rowFilterOriginationsAt(w *World, t time.Time) []astopo.Origination {
	tab := w.originations()
	windows := make(map[int]window, len(tab.churn))
	for _, c := range tab.churn {
		windows[c.row] = c.window
	}
	var out []astopo.Origination
	for i, og := range tab.rows {
		if wd, churns := windows[i]; !churns || (!t.Before(wd.from) && t.Before(wd.to)) {
			out = append(out, og)
		}
	}
	return out
}

// churnBoundaries lists every instant at which some origination starts
// or stops, with the instants just before and after.
func churnBoundaries(w *World) []time.Time {
	var dates []time.Time
	for _, c := range w.originations().churn {
		for _, at := range []time.Time{c.from, c.to} {
			dates = append(dates, at.Add(-time.Nanosecond), at, at.Add(time.Nanosecond))
		}
	}
	return dates
}

// checkOriginationsAtMatchesRowFilter checks that OriginationsAt keeps
// exactly the rows the row filter keeps, in an exactly sized slice, at
// each date that dates picks for a world, in both layouts. OriginationsAt
// copies the runs between inactive churn rows whole, so every date must
// agree. A fork after AddOrigination, of a row that sorts before every
// churn row, answers with the base's rows plus the added one, in table
// order: its own table is a merge that the row filter shares, so that
// reference is the base's answer with the row appended and the whole
// sorted.
func checkOriginationsAtMatchesRowFilter(t *testing.T, dates func(w *World) []time.Time) {
	t.Helper()
	check := func(w *World, dates []time.Time) {
		t.Helper()
		for _, at := range dates {
			got, want := w.OriginationsAt(at), rowFilterOriginationsAt(w, at)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q at %v: %d originations, the row filter %d", w.Scenario(), at, len(got), len(want))
			}
			if cap(got) != len(got) {
				t.Fatalf("%q at %v: %d originations in a slice of capacity %d", w.Scenario(), at, len(got), cap(got))
			}
		}
	}
	for _, cfg := range []Config{testConfig(11), miniLargeConfig(3)} {
		w, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.originations().churn) == 0 {
			t.Fatalf("scale %v: no churn windows to cross", cfg.Scale)
		}
		dates := dates(w)
		check(w, dates)

		f := w.Fork("hijack")
		check(f, dates) // the fork's table is the base's
		headline, _ := snapshotDates(w)
		origs := w.OriginationsAt(headline)
		hijack := astopo.Origination{Prefix: origs[len(origs)-1].Prefix, Origin: origs[0].Origin}
		if err := f.AddOrigination(hijack.Origin, hijack.Prefix); err != nil {
			t.Fatal(err)
		}
		check(f, dates)
		for _, at := range dates {
			want := append(w.OriginationsAt(at), hijack)
			slices.SortFunc(want, func(a, b astopo.Origination) int {
				return cmp.Or(cmp.Compare(a.Origin, b.Origin), a.Prefix.Compare(b.Prefix))
			})
			if got := f.OriginationsAt(at); !reflect.DeepEqual(got, want) {
				t.Fatalf("fork at %v: %d originations, want the base's %d plus the hijack", at, len(got), len(want)-1)
			}
		}
		check(w, dates)
	}
}

// The row filter checks OriginationsAt at the headline, mid-churn and
// the first study year. The test keeps the name of its first reference,
// World.SetSnapshot, which rewound the graph to a date before the world's
// origination table became the only record of announcements.
func TestOriginationsAtMatchesSetSnapshot(t *testing.T) {
	checkOriginationsAtMatchesRowFilter(t, func(w *World) []time.Time {
		headline, midChurn := snapshotDates(w)
		return []time.Time{headline, midChurn, w.Date(w.Config.StartYear)}
	})
}

// The row filter checks OriginationsAt at every instant a churn window
// opens or closes, and a nanosecond either side. The test keeps the name
// of its first reference, a derivation from the per-AS prefix maps and
// their churn windows, which the origination table replaced.
func TestOriginationsAtMatchesMapDerivation(t *testing.T) {
	checkOriginationsAtMatchesRowFilter(t, churnBoundaries)
}
