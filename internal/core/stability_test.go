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
// date. With immutable snapshot views there is nothing to restore — the
// graph state must be byte-identical before and after, and the headline
// dataset must still describe the headline date.
func TestStabilityLeavesWorldIntact(t *testing.T) {
	p := testWorld(t, 5)
	before := p.World.Graph.Originations()

	if _, err := p.Stability(context.Background(), 4); err != nil {
		t.Fatal(err)
	}

	after := p.World.Graph.Originations()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("Stability mutated the graph: %d originations before, %d after",
			len(before), len(after))
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

	// A mid-churn weekly build must also leave the graph alone.
	datasetAt(time.Date(p.World.Config.EndYear, 3, 10, 0, 0, 0, 0, time.UTC))
	if got := p.World.Graph.Originations(); !reflect.DeepEqual(before, got) {
		t.Error("mid-churn dataset build mutated the graph")
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
