package astopo

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"manrsmeter/internal/rpki"
)

// batchRequests returns one origination to flood per stub/mid AS of the
// diamond.
func batchRequests() []Origination {
	var reqs []Origination
	for i, asn := range []uint32{3, 4, 5, 6} {
		reqs = append(reqs, Origination{Prefix: pfx(fmt.Sprintf("10.%d.0.0/16", i+1)), Origin: asn})
	}
	return reqs
}

func treeSnapshot(tr *RouteTree) map[uint32]RouteInfo {
	out := make(map[uint32]RouteInfo)
	for _, asn := range tr.Reached() {
		info, _ := tr.Info(asn)
		out[asn] = info
	}
	return out
}

// A Propagator's tree is scratch: whatever the previous floods left in
// it, each flood must equal one from a fresh Propagator.
func TestPropagatorReuseMatchesFresh(t *testing.T) {
	g := diamond(t)
	reqs := batchRequests()
	p := NewPropagator(g)
	for round := 0; round < 3; round++ {
		for i, r := range reqs {
			want := treeSnapshot(g.Propagate(r.Prefix, r.Origin, nil))
			got := treeSnapshot(p.Propagate(r.Prefix, r.Origin, nil))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round %d request %d: reused tree %v, fresh %v", round, i, got, want)
			}
		}
		// An unknown origin floods nothing and must leave nothing behind.
		if tr := p.Propagate(reqs[0].Prefix, 999, nil); tr.Len() != 0 || len(tr.Reached()) != 0 {
			t.Errorf("round %d: unknown origin reached %v", round, tr.Reached())
		}
	}
}

// TestPropagateConcurrent exercises the lazily built dense adjacency from
// many goroutines at once (run under -race to catch regressions).
func TestPropagateConcurrent(t *testing.T) {
	g := diamond(t)
	reqs := batchRequests()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				r := reqs[i%len(reqs)]
				if tr := g.Propagate(r.Prefix, r.Origin, nil); tr.Len() == 0 {
					t.Error("propagation reached no AS")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMutationInvalidatesAdjacency checks that topology edits after a
// propagation are reflected in the next one.
func TestMutationInvalidatesAdjacency(t *testing.T) {
	g := diamond(t)
	p := pfx("10.9.0.0/16")
	before := g.Propagate(p, 5, nil)
	g.AddAS(7, "org7", "Org 7", "US", rpki.ARIN)
	if err := g.SetProviderCustomer(3, 7); err != nil {
		t.Fatal(err)
	}
	after := g.Propagate(p, 5, nil)
	if !after.Has(7) {
		t.Error("new customer AS 7 should learn the route after re-propagation")
	}
	if before.Has(7) {
		t.Error("old tree must not know about AS 7")
	}
}
