package manrsmeter

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"manrsmeter/internal/core"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/synth"
)

// The archive directory is a second route to the report: synthgen's
// files, read back by LoadFiles, give the dataset through ihr.FromMRT
// over the vantage points' RIBs instead of through the build's grouped
// floods. Over 20 small worlds, an arena-layout world of the
// build.topology bench's shape and the full world, the test checks
// that (a) the MRT-derived dataset equals the in-memory one row for row,
// with equal visibility counts for every origination; (b) every
// FromFiles section renders byte for byte alike over both worlds; and
// (c) the directory's IHR CSVs are the CSVs of the MRT-derived dataset.
// The file writer floods each origination on its own; it shares with
// the build only the propagator and the import filters.
func TestReportFromFilesMatchesMemory(t *testing.T) {
	type world struct {
		name string
		cfg  synth.Config
	}
	var worlds []world
	for seed := int64(1); seed <= 20; seed++ {
		cfg, err := Preset("small", seed)
		if err != nil {
			t.Fatal(err)
		}
		worlds = append(worlds, world{fmt.Sprintf("small-seed%d", seed), cfg})
	}
	arena := synth.NewLargeConfig(1)
	arena.Tier1s, arena.LargeISPs, arena.MediumISPs, arena.SmallASes, arena.CDNs = 8, 15, 750, 3750, 20
	arena.MANRSSmall, arena.MANRSMedium, arena.MANRSLarge, arena.MANRSCDNs = 80, 45, 4, 5
	full, err := Preset("full", 1)
	if err != nil {
		t.Fatal(err)
	}
	worlds = append(worlds, world{"arena-seed1", arena}, world{"full-seed1", full})
	for i, wc := range worlds {
		t.Run(wc.name, func(t *testing.T) { filesOracle(t, wc.cfg, i == 0) })
	}
}

func filesOracle(t *testing.T, cfg synth.Config, wholeReport bool) {
	ctx := context.Background()
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	asOf := w.Date(cfg.EndYear)
	dir := t.TempDir()
	if err := w.WriteFiles(ctx, dir, asOf, nil); err != nil {
		t.Fatal(err)
	}
	loaded, err := synth.LoadFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Date(loaded.Config.EndYear); !got.Equal(asOf) {
		t.Fatalf("loaded world is as of %v, want %v", got, asOf)
	}
	mem, err := NewPipeline(w)
	if err != nil {
		t.Fatal(err)
	}
	files, err := core.NewPipeline(ctx, loaded, asOf, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// (a) The dataset, row for row.
	want, got := mem.Dataset(), files.Dataset()
	if !reflect.DeepEqual(want.Visibility.Origs, w.OriginationsAt(asOf)) {
		t.Fatalf("in-memory visibility lists %d originations, want all %d active ones", want.Visibility.Len(), len(w.OriginationsAt(asOf)))
	}
	if i := firstRowDiff(got.PrefixOrigins, want.PrefixOrigins); i >= 0 {
		t.Fatalf("prefix-origins: %d from the RIB, %d in memory; first difference at row %d: %s",
			len(got.PrefixOrigins), len(want.PrefixOrigins), i, rowPair(got.PrefixOrigins, want.PrefixOrigins, i))
	}
	if i := firstRowDiff(got.Transits, want.Transits); i >= 0 {
		t.Fatalf("transits: %d from the RIB, %d in memory; first difference at row %d: %s",
			len(got.Transits), len(want.Transits), i, rowPair(got.Transits, want.Transits, i))
	}
	for _, og := range want.Visibility.Origs {
		if g, m := got.Visibility.Count(og), want.Visibility.Count(og); g != m {
			t.Fatalf("%s from AS%d: seen by %d vantage points in the RIB, %d in memory", og.Prefix, og.Origin, g, m)
		}
	}

	// (b) Every section the files support, byte for byte.
	for _, sec := range core.Sections {
		if sec.Offer&core.FromFiles == 0 {
			continue
		}
		m, err := sec.Render(ctx, mem, 0)
		if err != nil {
			t.Fatalf("%s over the generated world: %v", sec.Name, err)
		}
		f, err := sec.Render(ctx, files, 0)
		if err != nil {
			t.Fatalf("%s over the files: %v", sec.Name, err)
		}
		if f != m {
			t.Errorf("%s renders differently from the files:\n%s\nfrom the generated world:\n%s", sec.Name, f, m)
		}
	}

	// (c) The IHR CSVs in the directory are the RIB-derived dataset's.
	for name, write := range map[string]func(*ihr.Dataset, *bytes.Buffer) error{
		"ihr-prefix-origins.csv": func(d *ihr.Dataset, b *bytes.Buffer) error { return d.WritePrefixOriginCSV(b) },
		"ihr-transits.csv":       func(d *ihr.Dataset, b *bytes.Buffer) error { return d.WriteTransitCSV(b) },
	} {
		var b bytes.Buffer
		if err := write(got, &b); err != nil {
			t.Fatal(err)
		}
		onDisk, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, b.Bytes()) {
			t.Errorf("%s differs from the CSV of the RIB-derived dataset", name)
		}
	}

	if wholeReport {
		checkReportFromFiles(t, loaded, mem)
	}
}

// checkReportFromFiles runs the whole report over a loaded world: the
// FromFiles sections print what they print over the generated world,
// every other section its skip placeholder, and all of them end ok.
func checkReportFromFiles(t *testing.T, loaded *synth.World, mem *core.Pipeline) {
	var b strings.Builder
	if err := RunReport(context.Background(), &b, loaded, ReportOptions{ContinueOnError: true}); err != nil {
		t.Fatal(err)
	}
	report := b.String()
	for _, sec := range core.Sections {
		if sec.Offer&core.InReport == 0 {
			continue
		}
		var want string
		if sec.Offer&core.FromFiles != 0 {
			var err error
			if want, err = sec.Render(context.Background(), mem, 0); err != nil {
				t.Fatal(err)
			}
		} else {
			want = sec.Title + " skipped (needs more than the archive files hold)"
		}
		if !strings.Contains(report, want+"\n") {
			t.Errorf("report over the files lacks %s as\n%s", sec.Name, want)
		}
	}
	if !strings.Contains(report, "health: sections=17 ok=17 ") {
		t.Errorf("report over the files is not all ok:\n%s", report)
	}
}

// firstRowDiff returns the first index at which a and b differ, or -1.
func firstRowDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func rowPair[T any](got, want []T, i int) string {
	at := func(s []T) string {
		if i < len(s) {
			return fmt.Sprintf("%+v", s[i])
		}
		return "none"
	}
	return fmt.Sprintf("RIB %s, memory %s", at(got), at(want))
}
