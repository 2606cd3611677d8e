package main

import (
	"context"
	"reflect"
	"testing"

	"manrsmeter/internal/obsv"
)

// /healthz lists every finished section under its table name, counts
// them, and turns unhealthy on the first section that did not end ok;
// a still-running section and spans that are not sections stay out.
func TestSectionHealthReadsSectionSpans(t *testing.T) {
	tracer := obsv.NewTracer()
	ctx := obsv.ContextWithTracer(context.Background(), tracer)
	_, root := obsv.StartSpan(ctx, "report", obsv.KV("sections", 17))
	section := func(name, status string, extra ...obsv.Attr) {
		_, sp := obsv.StartSpan(ctx, "section", obsv.KV("name", name))
		if status == "" {
			return // still running
		}
		sp.SetAttr("status", status)
		for _, a := range extra {
			sp.SetAttr(a.Key, a.Value)
		}
		sp.End()
	}
	_, build := obsv.StartSpan(ctx, "dataset.build")
	build.SetAttr("status", "failed")
	build.End()

	section("fig2-growth", "ok")
	section("stability", "")
	if h := sectionHealth(tracer); !h.OK || !reflect.DeepEqual(h.Detail, map[string]string{
		"section.fig2-growth": "ok",
		"sections_finished":   "1",
	}) {
		t.Errorf("one ok, one running: %+v", h)
	}

	section("fig6-saturation", "panicked", obsv.KV("stack", "goroutine 1 [running]:"))
	section("fig9-preference", "timed-out")
	root.End()
	want := map[string]string{
		"section.fig2-growth":     "ok",
		"section.fig6-saturation": "panicked",
		"section.fig9-preference": "timed-out",
		"sections_finished":       "3",
	}
	if h := sectionHealth(tracer); h.OK || !reflect.DeepEqual(h.Detail, want) {
		t.Errorf("with a panicked and a timed-out section: OK=%v %v, want OK=false %v", h.OK, h.Detail, want)
	}

	if h := sectionHealth(obsv.NewTracer()); !h.OK || h.Detail["sections_finished"] != "0" {
		t.Errorf("before any section: %+v", h)
	}
}
