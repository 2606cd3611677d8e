package obsv

import (
	"context"
	"io"
	"strings"
	"sync"
	"testing"
)

// TestBoundedTracerCompacts checks a capped tracer discards the oldest
// spans, keeps the newest, and stays bounded — the property that lets
// manrsd keep a tracer attached under production load.
func TestBoundedTracerCompacts(t *testing.T) {
	tr := NewBoundedTracer(100)
	ctx := ContextWithTracer(context.Background(), tr)
	for i := 0; i < 1000; i++ {
		_, sp := StartSpan(ctx, "op", KV("i", i))
		sp.End()
	}
	events := tr.Events()
	if len(events) < 100 || len(events) >= 200 {
		t.Fatalf("bounded tracer holds %d spans, want within [100, 200)", len(events))
	}
	last := events[len(events)-1]
	if last.Attr("i") != "999" {
		t.Errorf("newest span lost: last attr i=%s, want 999", last.Attr("i"))
	}
	if first := events[0]; first.Attr("i") == "0" {
		t.Error("oldest span survived 10x the cap")
	}
}

func TestSpanHierarchy(t *testing.T) {
	tr := NewTracer()
	ctx := ContextWithTracer(context.Background(), tr)

	ctx1, root := StartSpan(ctx, "report")
	ctx2, child := StartSpan(ctx1, "section", KV("name", "Fig2Growth"))
	_, grand := StartSpan(ctx2, "dataset.build")
	grand.SetAttr("cache", "miss")
	grand.End()
	child.End()
	root.End()
	_, sibling := StartSpan(ctx1, "section", KV("name", "Fig4ByRIR"))
	sibling.End()

	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
	if events[0].Parent != 0 {
		t.Errorf("root parent = %d, want 0", events[0].Parent)
	}
	if events[1].Parent != events[0].ID {
		t.Errorf("child parent = %d, want %d", events[1].Parent, events[0].ID)
	}
	if events[2].Parent != events[1].ID {
		t.Errorf("grandchild parent = %d, want %d", events[2].Parent, events[1].ID)
	}
	if events[3].Parent != events[0].ID {
		t.Errorf("sibling parent = %d, want %d", events[3].Parent, events[0].ID)
	}
	if events[2].Wall() < 0 {
		t.Error("negative wall time")
	}

	var tree strings.Builder
	if err := tr.WriteTree(&tree); err != nil {
		t.Fatal(err)
	}
	out := tree.String()
	if !strings.Contains(out, "report ") {
		t.Errorf("tree missing root:\n%s", out)
	}
	if !strings.Contains(out, "  section ") || !strings.Contains(out, "    dataset.build ") {
		t.Errorf("tree missing indented children:\n%s", out)
	}
	if !strings.Contains(out, "cache=miss") || !strings.Contains(out, "name=Fig2Growth") {
		t.Errorf("tree missing attrs:\n%s", out)
	}
}

// TestSpanNoTracerIsFree checks the instrumented call-site contract:
// no tracer in the context means nil spans and zero allocated state.
func TestSpanNoTracerIsFree(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "anything", KV("k", "v"))
	if sp != nil {
		t.Fatal("expected nil span without a tracer")
	}
	if ctx2 != ctx {
		t.Error("context rewrapped without a tracer")
	}
	sp.SetAttr("k", 1) // must not panic
	sp.End()

	var tr *Tracer
	if _, sp := StartSpan(ContextWithTracer(ctx, tr), "x"); sp != nil {
		t.Error("expected nil span from a nil tracer")
	}
	if err := tr.WriteTree(io.Discard); err != nil {
		t.Error("nil tracer WriteTree should be a no-op")
	}
}

func TestSpanConcurrent(t *testing.T) {
	tr := NewTracer()
	ctx := ContextWithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c, sp := StartSpan(ctx, "outer")
				_, inner := StartSpan(c, "inner")
				inner.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	events := tr.Events()
	if len(events) != 8*200*2 {
		t.Fatalf("events = %d, want %d", len(events), 8*200*2)
	}
	// IDs must be unique and dense 1..n.
	seen := make(map[int64]bool, len(events))
	for _, e := range events {
		if e.ID < 1 || e.ID > int64(len(events)) || seen[e.ID] {
			t.Fatalf("bad span id %d", e.ID)
		}
		seen[e.ID] = true
	}
	tr.Reset()
	if len(tr.Events()) != 0 {
		t.Error("Reset left events behind")
	}
}
