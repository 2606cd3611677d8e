package manrsmeter

import (
	"bytes"
	"context"
	"fmt"
	"hash"
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
	if err := RunReport(context.Background(), &buf, world, ReportOptions{StabilityWeeks: 3, Workers: 2}); err != nil {
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

// foldTree folds every route decision of one tree into h: per reached AS
// the route class, next hop, and path length, walked in the graph's
// sorted ASN order.
func foldTree(h hash.Hash64, asns []uint32, tr *astopo.RouteTree) {
	fmt.Fprintf(h, "T %s %d %d\n", tr.Prefix, tr.Origin, tr.Len())
	for _, asn := range asns {
		info, ok := tr.Info(asn)
		if !ok {
			continue
		}
		fmt.Fprintf(h, "%d %d %d %d\n", asn, info.Class, info.NextHop, info.PathLen)
	}
}

// TestPropagateGoldenDigest is the CSR equivalence gate: Propagate over
// the seed-scale world must reproduce the pre-refactor RouteTree
// results bit-for-bit — same reachable set, same route class, next hop,
// and path length everywhere — with and without an import filter, from
// one Propagator reused across every flood and from a fresh one each.
func TestPropagateGoldenDigest(t *testing.T) {
	world, err := GenerateWorld(smallConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	g := world.Graph
	view, err := world.At(context.Background(), world.Date(world.Config.EndYear), 0)
	if err != nil {
		t.Fatal(err)
	}
	rpkiIx, irrIx := view.RPKI, view.IRR

	// Every origination unfiltered, then the same set again behind the
	// world's own ROV/IRR drop policies, to pin the filtered code path too.
	origs := world.OriginationsAt(world.Date(world.Config.EndYear))
	filterFor := ihr.PolicyFilter(g, world.Policies, rpkiIx, irrIx)
	asns := g.ASNs()
	digest := func(flood func(og astopo.Origination, f astopo.ImportFilter) *astopo.RouteTree) uint64 {
		h := fnv.New64a()
		for _, og := range origs {
			foldTree(h, asns, flood(og, nil))
		}
		for _, og := range origs {
			foldTree(h, asns, flood(og, filterFor(og.Prefix, og.Origin)))
		}
		return h.Sum64()
	}
	prop := astopo.NewPropagator(g)
	reused := digest(func(og astopo.Origination, f astopo.ImportFilter) *astopo.RouteTree {
		return prop.Propagate(og.Prefix, og.Origin, f)
	})
	fresh := digest(func(og astopo.Origination, f astopo.ImportFilter) *astopo.RouteTree {
		return g.Propagate(og.Prefix, og.Origin, f)
	})
	if reused != fresh {
		t.Fatalf("a reused Propagator gives digest %016x, fresh ones %016x", reused, fresh)
	}

	got := fmt.Sprintf("%016x\n", reused)
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
