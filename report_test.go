package manrsmeter

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"manrsmeter/internal/core"
	"manrsmeter/internal/obsv"
)

// TestRunReportByteIdentical is the determinism golden test: the full
// report must be byte-identical across repeated runs and across worker
// counts, because every parallel stage merges into a total order.
func TestRunReportByteIdentical(t *testing.T) {
	world, err := GenerateWorld(smallConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) string {
		var buf bytes.Buffer
		err := RunReport(context.Background(), &buf, world, ReportOptions{StabilityWeeks: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := render(1)
	if first == "" {
		t.Fatal("empty report")
	}
	if again := render(1); again != first {
		t.Error("two Workers=1 runs differ")
	}
	if wide := render(8); wide != first {
		t.Error("Workers=8 report differs from Workers=1")
	}
}

// TestConcurrentPipelinesSharedWorld runs two pipelines and two
// concurrent RunReport calls over one World — the immutable-snapshot
// contract under -race, plus output equality.
func TestConcurrentPipelinesSharedWorld(t *testing.T) {
	world, err := GenerateWorld(smallConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	pipes := make([]*Pipeline, 2)
	outs := make([]bytes.Buffer, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pipe, err := core.NewPipeline(context.Background(), world, world.Date(world.Config.EndYear), core.Options{Workers: 2})
			if err != nil {
				t.Errorf("pipeline %d: %v", i, err)
				return
			}
			pipes[i] = pipe
			opts := ReportOptions{StabilityWeeks: 3, Workers: 2}
			if err := RunReportWithPipeline(context.Background(), &outs[i], pipe, opts); err != nil {
				t.Errorf("report %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if outs[0].String() != outs[1].String() {
		t.Error("concurrent reports over one world differ")
	}
	if !strings.Contains(outs[0].String(), "Finding 8.7") {
		t.Error("stability section missing from concurrent report")
	}
}

// TestRunReportTracerDeterministic is the observability acceptance
// test: attaching a span tracer must not perturb the report — bytes
// stay identical across worker counts — while the tracer itself
// records the run hierarchy (a report root with one span per section).
func TestRunReportTracerDeterministic(t *testing.T) {
	world, err := GenerateWorld(smallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) (string, *obsv.Tracer) {
		tracer := obsv.NewTracer()
		var buf bytes.Buffer
		opts := ReportOptions{StabilityWeeks: 3, Workers: workers, Tracer: tracer}
		if err := RunReport(context.Background(), &buf, world, opts); err != nil {
			t.Fatal(err)
		}
		return buf.String(), tracer
	}
	narrow, _ := render(1)
	wide, tracer := render(8)
	if narrow != wide {
		t.Error("report with Tracer differs between Workers=1 and Workers=8")
	}
	var plain bytes.Buffer
	if err := RunReport(context.Background(), &plain, world, ReportOptions{StabilityWeeks: 3, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if plain.String() != narrow {
		t.Error("attaching a Tracer changed the report bytes")
	}

	events := tracer.Events()
	var roots, sections int
	for _, ev := range events {
		switch ev.Name {
		case "report":
			roots++
		case "section":
			sections++
			if ev.Parent == 0 {
				t.Errorf("section span %q has no parent", ev.Attr("name"))
			}
			if s := ev.Attr("status"); s != "ok" {
				t.Errorf("section %q status = %q, want ok", ev.Attr("name"), s)
			}
		}
	}
	if roots != 1 {
		t.Errorf("report root spans = %d, want 1", roots)
	}
	if sections == 0 {
		t.Error("no section spans recorded")
	}
}

// TestRunReportSectionSpans checks the tracer records one timed span
// per section.
func TestRunReportSectionSpans(t *testing.T) {
	world, err := GenerateWorld(smallConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	tracer := obsv.NewTracer()
	opts := ReportOptions{SkipStability: true, SkipExtensions: true, Tracer: tracer}
	if err := RunReport(context.Background(), &report, world, opts); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range tracer.Events() {
		if ev.Name == "section" {
			names[ev.Attr("name")] = true
			if ev.Wall() <= 0 {
				t.Errorf("section %s has no wall time", ev.Attr("name"))
			}
		}
	}
	if len(names) != 17 {
		t.Fatalf("section spans = %d, want one per section (17): %v", len(names), names)
	}
	for _, name := range []string{"fig2-growth", "stability", "route-leaks"} {
		if !names[name] {
			t.Errorf("trace missing section %s", name)
		}
	}
}
