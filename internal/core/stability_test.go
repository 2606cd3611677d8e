package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"manrsmeter/internal/ihr"
)

// TestStabilityLeavesWorldIntact is the regression test for the
// mutate-and-restore bug: Stability used to rewind the shared World to
// each weekly snapshot and only restored the headline state on the
// success path, so an error (or a concurrent reader) observed the wrong
// date. With immutable snapshot views there is nothing to restore: the
// headline dataset must still describe the headline date, and so must
// Figure 4, whose member space is read at the pipeline's date.
func TestStabilityLeavesWorldIntact(t *testing.T) {
	p := testWorld(t, 5)
	fig4 := p.Fig4ByRIR().Render()

	if _, err := p.Stability(context.Background(), 4); err != nil {
		t.Fatal(err)
	}

	datasetAt := func(at time.Time) *ihr.Dataset {
		view, err := p.World.At(context.Background(), at, 0)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := view.Dataset(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	if datasetAt(p.AsOf) != p.Dataset() {
		t.Error("headline dataset changed after Stability")
	}
	datasetAt(time.Date(p.World.Config.EndYear, 3, 10, 0, 0, 0, 0, time.UTC))
	if got := p.Fig4ByRIR().Render(); got != fig4 {
		t.Errorf("Figure 4 after Stability and a mid-churn build:\n%s\nbefore:\n%s", got, fig4)
	}
}

// TestStabilityWorkerCountInvariant asserts the parallel weekly fan-out
// produces the same classification as the serial path.
func TestStabilityWorkerCountInvariant(t *testing.T) {
	// Two independently generated worlds from one seed, so the parallel
	// run cannot ride on the serial run's dataset cache.
	ps := testWorld(t, 6)
	ps.Workers = 1
	serial, err := ps.Stability(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	pp := testWorld(t, 6)
	pp.Workers = 4
	par, err := pp.Stability(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("stability results differ across worker counts:\nserial: %+v\nparallel: %+v", serial, par)
	}
}
