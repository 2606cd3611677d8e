package astopo

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"manrsmeter/internal/rpki"
)

// batchRequests originates one prefix per stub/mid AS of the diamond and
// returns the propagation requests for them.
func batchRequests(t *testing.T, g *Graph) []PropagateRequest {
	t.Helper()
	var reqs []PropagateRequest
	for i, asn := range []uint32{3, 4, 5, 6} {
		p := pfx(fmt.Sprintf("10.%d.0.0/16", i+1))
		if err := g.Originate(asn, p); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, PropagateRequest{Prefix: p, Origin: asn})
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

func TestPropagateBatchMatchesSequential(t *testing.T) {
	g := diamond(t)
	reqs := batchRequests(t, g)
	for _, workers := range []int{1, 2, 8, 0} {
		trees, err := g.PropagateBatchCtx(context.Background(), reqs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(trees) != len(reqs) {
			t.Fatalf("workers=%d: %d trees for %d requests", workers, len(trees), len(reqs))
		}
		for i, r := range reqs {
			want := treeSnapshot(g.Propagate(r.Prefix, r.Origin, r.Filter))
			got := treeSnapshot(trees[i])
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d request %d: batch tree %v, sequential %v", workers, i, got, want)
			}
		}
	}
}

// TestPropagateConcurrent exercises the lazily built dense adjacency from
// many goroutines at once (run under -race to catch regressions).
func TestPropagateConcurrent(t *testing.T) {
	g := diamond(t)
	reqs := batchRequests(t, g)
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
	if err := g.Originate(5, p); err != nil {
		t.Fatal(err)
	}
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
