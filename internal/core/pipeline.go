// Package core is the experiment pipeline: one function per table and
// figure of the paper's evaluation, each returning a structured result
// that renders to the same rows/series the paper reports. The pipeline
// runs over a synth.World (the simulated Internet) exactly the way the
// paper's pipeline runs over RouteViews/RIS + RPKI + IRR + CAIDA data.
package core

import (
	"context"
	"fmt"
	"time"

	"manrsmeter/internal/ihr"
	"manrsmeter/internal/manrs"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/synth"
)

// Pipeline holds the dataset and per-AS metrics at one date, shared by
// the experiments. Experiments that validate beyond the dataset's rows
// take the registries from the world's view of AsOf (World.At, a lookup
// once the date is built or restored). They only read the shared World,
// so several pipelines (or several experiments of one pipeline) may run
// concurrently over one World.
type Pipeline struct {
	World *synth.World
	// AsOf is the measurement date.
	AsOf time.Time
	// Workers bounds the goroutines each experiment fans out on; ≤ 0
	// means one per CPU. Results are identical for every worker count.
	Workers int

	ds      *ihr.Dataset
	metrics map[uint32]*manrs.ASMetrics
}

// Options tunes pipeline construction.
type Options struct {
	// Workers bounds the goroutines used by dataset builds and the
	// experiments; ≤ 0 means one per CPU.
	Workers int
}

// NewPipeline builds the dataset and per-AS metrics at asOf from the
// world's view of that date. A done context aborts construction with
// its cause instead of finishing the build.
func NewPipeline(ctx context.Context, w *synth.World, asOf time.Time, opts Options) (*Pipeline, error) {
	ctx, span := obsv.StartSpan(ctx, "pipeline.build")
	defer span.End()
	span.SetAttr("asof", asOf.Format("2006-01-02"))
	view, err := w.At(ctx, asOf, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: relying party: %w", err)
	}
	ds, err := view.Dataset(ctx, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: build dataset: %w", err)
	}
	_, mspan := obsv.StartSpan(ctx, "pipeline.metrics")
	p := RestorePipeline(w, asOf, opts.Workers, ds)
	mspan.End()
	return p, nil
}

// RestorePipeline reconstructs a Pipeline from an already built
// dataset — the warm-start path of a daemon recovering a persisted
// snapshot. Per-AS metrics are a cheap deterministic function of the
// dataset, so they are recomputed rather than persisted; the result is
// indistinguishable from a pipeline that built the dataset itself.
func RestorePipeline(w *synth.World, asOf time.Time, workers int, ds *ihr.Dataset) *Pipeline {
	return &Pipeline{
		World:   w,
		AsOf:    asOf,
		Workers: workers,
		ds:      ds,
		metrics: manrs.ComputeMetrics(ds),
	}
}

// Dataset exposes the cached IHR dataset at AsOf.
func (p *Pipeline) Dataset() *ihr.Dataset { return p.ds }

// Metrics exposes the cached per-AS metrics at AsOf.
func (p *Pipeline) Metrics() map[uint32]*manrs.ASMetrics { return p.metrics }

// Cohort identifies one of the paper's six comparison groups.
type Cohort struct {
	Class  manrs.SizeClass
	Member bool
}

// String renders like the paper's figure legends ("small MANRS").
func (c Cohort) String() string {
	if c.Member {
		return c.Class.String() + " MANRS"
	}
	return c.Class.String() + " non-MANRS"
}

// AllCohorts lists the six cohorts in legend order.
var AllCohorts = []Cohort{
	{manrs.Small, true}, {manrs.Small, false},
	{manrs.Medium, true}, {manrs.Medium, false},
	{manrs.Large, true}, {manrs.Large, false},
}

// CohortOf classifies an AS at the pipeline's measurement date.
func (p *Pipeline) CohortOf(asn uint32) Cohort {
	return Cohort{
		Class:  manrs.ClassifySize(p.World.Graph.CustomerDegree(asn)),
		Member: p.World.MANRS.IsMember(asn, p.AsOf),
	}
}
