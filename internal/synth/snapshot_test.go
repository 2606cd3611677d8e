package synth

import (
	"reflect"
	"testing"
	"time"
)

// snapshotDates returns the headline date plus a mid-churn date (when
// the §8.5 leak windows are open) for the generated world.
func snapshotDates(w *World) (headline, midChurn time.Time) {
	year := w.Config.EndYear
	return w.Date(year), time.Date(year, 3, 10, 0, 0, 0, 0, time.UTC)
}

func TestOriginationsAtMatchesSetSnapshot(t *testing.T) {
	w := generate(t, 11)
	headline, midChurn := snapshotDates(w)
	for _, at := range []time.Time{headline, midChurn, w.Date(w.Config.StartYear)} {
		view := w.OriginationsAt(at)
		w.SetSnapshot(at)
		mutated := w.Graph.Originations()
		if !reflect.DeepEqual(view, mutated) {
			t.Errorf("OriginationsAt(%v) diverges from SetSnapshot view: %d vs %d originations",
				at, len(view), len(mutated))
		}
	}
	w.SetSnapshot(headline)
}
