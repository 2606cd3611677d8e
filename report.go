package manrsmeter

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"time"

	"manrsmeter/internal/core"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/parallel"
)

// ReportOptions controls RunReport.
type ReportOptions struct {
	// StabilityWeeks is the number of weekly snapshots for the §8.5
	// analysis; zero means 12 (the paper's count). Stability is the most
	// expensive experiment; set SkipStability to omit it.
	StabilityWeeks int
	SkipStability  bool
	// SkipExtensions omits the beyond-the-paper experiments (hijack
	// containment, Action 3, route leaks).
	SkipExtensions bool
	// Workers bounds the goroutines the staged runner fans the report
	// sections (and their dataset builds) across; ≤ 0 means one per CPU.
	// The report bytes are identical for every worker count.
	Workers int
	// Tracer, when non-nil, records the run as hierarchical spans: a
	// "report" root, one "section" span per section (with its terminal
	// status, and the goroutine stack if it panicked), and whatever the sections start beneath them (pipeline
	// and dataset builds). Render with Tracer.WriteTree or export
	// Tracer.Events. Tracing never touches w, so report bytes stay
	// identical across worker counts with tracing enabled.
	Tracer *obsv.Tracer
	// SectionObserver, when non-nil, is called as each section reaches a
	// terminal status — the live feed an admin /healthz endpoint watches
	// while the run is in flight (the ContinueOnError health trailer is
	// the end-of-run rendering of the same states). Sections finish
	// concurrently; the observer must be safe for concurrent use.
	SectionObserver func(name, status string, wall time.Duration)
	// SectionTimeout is the per-section watchdog: a section still running
	// after this long is recorded as timed-out and its slot is abandoned
	// (its context is canceled so cooperative work stops). Zero disables
	// the watchdog.
	SectionTimeout time.Duration
	// ContinueOnError switches the runner into degraded mode: a failed,
	// panicked, or timed-out section renders a diagnostic stanza in its
	// slot instead of aborting the whole report, and the report ends with
	// a machine-readable health trailer (see the "health:" lines). The
	// successful sections remain byte-identical across worker counts.
	ContinueOnError bool

	// sectionHook, when non-nil, wraps every section's run function
	// before dispatch. It exists for tests, which use it to force panics,
	// watchdog timeouts, and cancellation stalls in otherwise healthy
	// sections.
	sectionHook func(name string, run sectionRun) sectionRun
}

// The report's fixed sizes: Table 1 profiles three CDNs and three ISPs,
// and the hijack-containment extension samples 200 incidents.
const (
	caseStudyCDNs, caseStudyISPs = 3, 3
	hijackIncidents              = 200
)

// sectionRun computes one section's rendered output. The context is
// canceled when the section's watchdog expires or the report run is
// canceled; long-running sections (the stability fan-out) honor it,
// cheap pure-CPU sections may ignore it.
type sectionRun func(ctx context.Context) (string, error)

// section is one independently computable unit of the report: sections
// run concurrently and their outputs are emitted in declaration order.
type section struct {
	name string
	run  sectionRun
}

// sectionStatus classifies how a section's run ended. The zero value is
// statusCanceled so sections never dispatched (cancellation stopped the
// pool first) report correctly without bookkeeping.
type sectionStatus int

const (
	statusCanceled sectionStatus = iota
	statusOK
	statusFailed
	statusPanicked
	statusTimedOut
)

func (s sectionStatus) String() string {
	switch s {
	case statusOK:
		return "ok"
	case statusFailed:
		return "failed"
	case statusPanicked:
		return "panicked"
	case statusTimedOut:
		return "timed-out"
	default:
		return "canceled"
	}
}

// sectionOutcome is one section's result slot: exactly one of out (on
// ok) or err (otherwise) is meaningful. stack holds the goroutine stack
// of a panicked section, kept out of err so diagnostic stanzas stay
// deterministic.
type sectionOutcome struct {
	status sectionStatus
	out    string
	err    error
	stack  []byte
	wall   time.Duration
}

// RunReport regenerates every table and figure of the paper's evaluation
// over the given world and writes the rendered results to w.
func RunReport(w io.Writer, world *World, opts ReportOptions) error {
	return RunReportCtx(context.Background(), w, world, opts)
}

// RunReportCtx is RunReport with cancellation: ctx aborts the pipeline
// build and the section fan-out (SIGINT/SIGTERM wiring in cmd/ routes
// through here). See RunReportWithPipelineCtx for the failure semantics.
func RunReportCtx(ctx context.Context, w io.Writer, world *World, opts ReportOptions) error {
	pipe, err := NewPipelineCtx(ctx, world, core.Options{Workers: opts.Workers})
	if err != nil {
		return err
	}
	return RunReportWithPipelineCtx(ctx, w, pipe, opts)
}

// RunReportWithPipeline is RunReport over an already-built pipeline.
func RunReportWithPipeline(w io.Writer, pipe *Pipeline, opts ReportOptions) error {
	return RunReportWithPipelineCtx(context.Background(), w, pipe, opts)
}

// RunReportWithPipelineCtx is the staged report runner.
//
// The sections are staged: every section is a pure function of the
// pipeline's immutable state, so they execute concurrently across
// opts.Workers goroutines, each buffering its rendered output; the
// buffers are then written in the paper's section order. Output is
// byte-identical to a sequential run.
//
// Failure semantics: a panic inside a section is recovered and scoped
// to that section; opts.SectionTimeout bounds each section's wall time.
// By default the lowest-index section that failed, panicked, or timed
// out aborts the report with its error (deterministic regardless of
// scheduling). With opts.ContinueOnError the report completes anyway:
// bad sections render diagnostic stanzas in their slots, in paper
// order, and a machine-readable health trailer summarizes the run.
// Cancellation of ctx stops the fan-out and returns the cancellation
// cause; under ContinueOnError the sections already completed are still
// written first, so interrupted runs keep their finished work.
func RunReportWithPipelineCtx(ctx context.Context, w io.Writer, pipe *Pipeline, opts ReportOptions) error {
	sections := []section{
		{"Fig2Growth", func(context.Context) (string, error) { return pipe.Fig2Growth().Render(), nil }},
		{"Fig4ByRIR", func(context.Context) (string, error) { return pipe.Fig4ByRIR().Render(), nil }},
		{"Finding70", func(context.Context) (string, error) { return pipe.Finding70().Render(), nil }},
		{"Fig5aRPKIOrigination", func(context.Context) (string, error) { return pipe.Fig5aRPKIOrigination().Render(), nil }},
		{"Fig5bIRROrigination", func(context.Context) (string, error) { return pipe.Fig5bIRROrigination().Render(), nil }},
		{"Action4", func(context.Context) (string, error) { return core.RenderAction4(pipe.Action4()), nil }},
		{"Table1CaseStudies", func(ctx context.Context) (string, error) {
			rows, err := pipe.Table1CaseStudies(ctx, caseStudyCDNs, caseStudyISPs)
			if err != nil {
				return "", err
			}
			return core.RenderTable1(rows), nil
		}},
		{"Stability", func(ctx context.Context) (string, error) {
			if opts.SkipStability {
				return "Finding 8.7 — stability analysis skipped (ReportOptions.SkipStability)", nil
			}
			res, err := pipe.Stability(ctx, opts.StabilityWeeks)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{"Fig6Saturation", func(ctx context.Context) (string, error) {
			res, err := pipe.Fig6Saturation(ctx)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{"Fig7aRPKIPropagation", func(context.Context) (string, error) { return pipe.Fig7aRPKIPropagation().Render(), nil }},
		{"Fig7bIRRPropagation", func(context.Context) (string, error) { return pipe.Fig7bIRRPropagation().Render(), nil }},
		{"Fig8Unconformant", func(context.Context) (string, error) { return pipe.Fig8Unconformant().Render(), nil }},
		{"Table2Action1", func(context.Context) (string, error) { return core.RenderTable2(pipe.Table2Action1()), nil }},
		{"Fig9Preference", func(context.Context) (string, error) { return pipe.Fig9Preference().Render(), nil }},
		{"HijackImpact", func(ctx context.Context) (string, error) {
			if opts.SkipExtensions {
				return "Extension — hijack containment skipped (ReportOptions.SkipExtensions)", nil
			}
			res, err := pipe.HijackImpact(ctx, hijackIncidents, 1)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{"Action3", func(context.Context) (string, error) {
			if opts.SkipExtensions {
				return "Extension — Action 3 skipped (ReportOptions.SkipExtensions)", nil
			}
			return pipe.Action3().Render(), nil
		}},
		{"RouteLeaks", func(context.Context) (string, error) {
			if opts.SkipExtensions {
				return "Extension — route leaks skipped (ReportOptions.SkipExtensions)", nil
			}
			res, err := pipe.RouteLeaks(100, 1)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
	}

	if opts.Tracer != nil {
		var root *obsv.Span
		ctx = obsv.ContextWithTracer(ctx, opts.Tracer)
		ctx, root = obsv.StartSpan(ctx, "report", obsv.KV("sections", len(sections)))
		defer root.End()
	}

	runStart := time.Now()
	outcomes := make([]sectionOutcome, len(sections))
	// The fan-out itself cannot fail the report: panics are recovered
	// inside runSection and cancellation leaves undispatched slots at
	// their zero value, which reads as statusCanceled.
	_ = parallel.ForEachCtx(ctx, len(sections), opts.Workers, func(i int) {
		run := sections[i].run
		if opts.sectionHook != nil {
			run = opts.sectionHook(sections[i].name, run)
		}
		sctx, span := obsv.StartSpan(ctx, "section", obsv.KV("name", sections[i].name))
		outcomes[i] = runSection(sctx, run, opts.SectionTimeout)
		span.SetAttr("status", outcomes[i].status.String())
		if len(outcomes[i].stack) > 0 {
			span.SetAttr("stack", string(outcomes[i].stack))
		}
		span.End()
		if opts.SectionObserver != nil {
			opts.SectionObserver(sections[i].name, outcomes[i].status.String(), outcomes[i].wall)
		}
	})
	runWall := time.Since(runStart)

	if !opts.ContinueOnError {
		for i, o := range outcomes {
			switch o.status {
			case statusOK:
			case statusCanceled:
				cause := o.err
				if cause == nil { // never dispatched: the pool stopped first
					cause = context.Cause(ctx)
				}
				return fmt.Errorf("report: canceled: %w", cause)
			default:
				return fmt.Errorf("report: section %s: %w", sections[i].name, o.err)
			}
		}
	}

	for i, o := range outcomes {
		text := o.out
		if o.status != statusOK {
			text = diagnosticStanza(sections[i].name, o)
		}
		if _, err := fmt.Fprintln(w, text); err != nil {
			return err
		}
	}
	if opts.ContinueOnError {
		if err := writeHealthTrailer(w, sections, outcomes, runWall); err != nil {
			return err
		}
	}
	// Completed work is flushed above even when the run was interrupted;
	// the cancellation still decides the exit status.
	if err := context.Cause(ctx); err != nil {
		return fmt.Errorf("report: canceled: %w", err)
	}
	return nil
}

// runSection executes one section under its watchdog. The section runs
// in its own goroutine so a hang is bounded: when the watchdog (or the
// parent context) fires first, the slot is released and the section's
// context is canceled — a cooperative section unwinds promptly, and a
// non-cooperative one finishes into a buffered channel without holding
// a pool worker. Panics are recovered into the outcome with their
// stack.
func runSection(ctx context.Context, run sectionRun, timeout time.Duration) sectionOutcome {
	start := time.Now()
	sctx, cancel := context.WithCancel(ctx)
	var watchdog <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		watchdog = timer.C
	}
	defer cancel()

	done := make(chan sectionOutcome, 1) // buffered: an abandoned section must not block
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- sectionOutcome{
					status: statusPanicked,
					err:    fmt.Errorf("panic: %v", r),
					stack:  debug.Stack(),
				}
			}
		}()
		out, err := run(sctx)
		if err != nil {
			done <- sectionOutcome{status: statusFailed, err: err}
			return
		}
		done <- sectionOutcome{status: statusOK, out: out}
	}()

	var o sectionOutcome
	select {
	case o = <-done:
	case <-watchdog:
		cancel()
		// Give a cooperative section a moment to observe the canceled
		// context and report its (now canceled) result; otherwise abandon
		// the slot so one stuck section cannot stall the whole report.
		select {
		case <-done:
		case <-time.After(50 * time.Millisecond):
		}
		o = sectionOutcome{status: statusTimedOut, err: fmt.Errorf("watchdog: section timed out after %v", timeout)}
	case <-ctx.Done():
		o = sectionOutcome{status: statusCanceled, err: context.Cause(ctx)}
	}
	o.wall = time.Since(start)
	return o
}

// diagnosticStanza renders a failed section's slot. It is deterministic
// (no wall times, no stack addresses) so degraded reports stay
// byte-identical across worker counts for the same failures.
func diagnosticStanza(name string, o sectionOutcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "!! section %s unavailable (%s)\n", name, o.status)
	if o.err != nil {
		fmt.Fprintf(&b, "!!   %s\n", o.err)
	}
	b.WriteString("!! degraded run: ContinueOnError rendered this stanza in the section's slot")
	return b.String()
}

// writeHealthTrailer emits the machine-readable run summary that ends a
// degraded-mode report: one aggregate line, then one line per section
// with its status and wall time (and error, when it has one).
func writeHealthTrailer(w io.Writer, sections []section, outcomes []sectionOutcome, wall time.Duration) error {
	var ok, failed, panicked, timedOut, canceled int
	for _, o := range outcomes {
		switch o.status {
		case statusOK:
			ok++
		case statusFailed:
			failed++
		case statusPanicked:
			panicked++
		case statusTimedOut:
			timedOut++
		default:
			canceled++
		}
	}
	if _, err := fmt.Fprintf(w, "health: sections=%d ok=%d failed=%d panicked=%d timed-out=%d canceled=%d wall=%v\n",
		len(sections), ok, failed, panicked, timedOut, canceled, wall.Round(time.Microsecond)); err != nil {
		return err
	}
	for i, sec := range sections {
		o := outcomes[i]
		if o.status == statusOK {
			if _, err := fmt.Fprintf(w, "health: section=%s status=%s wall=%v\n", sec.name, o.status, o.wall.Round(time.Microsecond)); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "health: section=%s status=%s wall=%v err=%q\n", sec.name, o.status, o.wall.Round(time.Microsecond), errText(o.err)); err != nil {
			return err
		}
	}
	return nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
