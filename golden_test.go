package manrsmeter

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/ihr"
)

// The golden files pin the exact bytes produced by the seed-scale
// pipeline before the compact-layout refactor. Any change to
// propagation order, route preference, status classification, or
// report rendering shows up here as a byte diff. Regenerate only for
// an intentional output change:
//
//	UPDATE_GOLDEN=1 go test -run 'Golden' .
const (
	goldenReportFile      = "testdata/golden_report_seed8.txt"
	goldenPropagateDigest = "testdata/golden_propagate_digest.txt"
)

func updateGolden() bool { return os.Getenv("UPDATE_GOLDEN") != "" }

func writeGolden(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("golden updated: %s (%d bytes)", path, len(data))
}

// TestReportGoldenBytes pins the full seed-scale report against the
// committed pre-refactor bytes. TestRunReportByteIdentical only proves
// internal consistency (same bytes across worker counts); this test
// proves the refactor did not move the output at all.
func TestReportGoldenBytes(t *testing.T) {
	world, err := GenerateWorld(smallConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RunReport(&buf, world, ReportOptions{StabilityWeeks: 3, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	if updateGolden() {
		writeGolden(t, goldenReportFile, got)
		return
	}
	want, err := os.ReadFile(goldenReportFile)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report bytes diverged from pre-refactor golden: got %d bytes, want %d bytes; first difference at offset %d",
			len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// propagationDigest folds every route decision from every tree into one
// fnv64a hash: per reached AS the route class, next hop, and path
// length, walked in the graph's sorted ASN order.
func propagationDigest(g *astopo.Graph, trees []*astopo.RouteTree) uint64 {
	asns := g.ASNs()
	h := fnv.New64a()
	for _, tr := range trees {
		fmt.Fprintf(h, "T %s %d %d\n", tr.Prefix, tr.Origin, tr.Len())
		for _, asn := range asns {
			info, ok := tr.Info(asn)
			if !ok {
				continue
			}
			fmt.Fprintf(h, "%d %d %d %d\n", asn, info.Class, info.NextHop, info.PathLen)
		}
	}
	return h.Sum64()
}

// TestPropagateGoldenDigest is the CSR equivalence gate: Propagate over
// the seed-scale world must reproduce the pre-refactor RouteTree
// results bit-for-bit — same reachable set, same route class, next hop,
// and path length everywhere — across worker counts, with and without
// an import filter.
func TestPropagateGoldenDigest(t *testing.T) {
	world, err := GenerateWorld(smallConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	g := world.Graph
	rpkiIx, irrIx, err := world.IndexesAt(world.Date(world.Config.EndYear))
	if err != nil {
		t.Fatal(err)
	}

	origs := g.Originations()
	reqs := make([]astopo.PropagateRequest, 0, 2*len(origs))
	for _, og := range origs {
		reqs = append(reqs, astopo.PropagateRequest{Prefix: og.Prefix, Origin: og.Origin})
	}
	// The same set again behind the world's own ROV/IRR drop policies,
	// to pin the filtered code path too.
	filterFor := ihr.PolicyFilter(g, world.Policies, rpkiIx, irrIx)
	for _, og := range origs {
		reqs = append(reqs, astopo.PropagateRequest{
			Prefix: og.Prefix,
			Origin: og.Origin,
			Filter: filterFor(og.Prefix, og.Origin),
		})
	}

	digests := make(map[int]uint64)
	for _, workers := range []int{1, 3, 8} {
		trees, err := g.PropagateBatchCtx(context.Background(), reqs, workers)
		if err != nil {
			t.Fatal(err)
		}
		digests[workers] = propagationDigest(g, trees)
	}
	if digests[3] != digests[1] || digests[8] != digests[1] {
		t.Fatalf("propagation digest varies with worker count: %v", digests)
	}

	got := fmt.Sprintf("%016x\n", digests[1])
	if updateGolden() {
		writeGolden(t, goldenPropagateDigest, []byte(got))
		return
	}
	want, err := os.ReadFile(goldenPropagateDigest)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("propagation digest diverged from pre-refactor golden: got %s want %s", got, want)
	}
}
