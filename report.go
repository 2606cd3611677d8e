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
	// "report" root, one "section" span per section (its name from the
	// start; its terminal status once it ends, and the goroutine stack if
	// it panicked), and whatever the sections start beneath them
	// (pipeline and dataset builds). An admin /healthz can read the
	// live section statuses off these spans. Render with
	// Tracer.WriteTree or export Tracer.Events. Tracing never touches w,
	// so report bytes stay identical across worker counts with tracing
	// enabled.
	Tracer *obsv.Tracer
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

// sectionRun computes one section's rendered output. The context is
// canceled when the section's watchdog expires or the report run is
// canceled; long-running sections (the stability fan-out) honor it,
// cheap pure-CPU sections may ignore it.
type sectionRun func(ctx context.Context) (string, error)

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
// over the given world and writes the rendered results to w. ctx aborts
// the pipeline build and the section fan-out (SIGINT/SIGTERM wiring in
// cmd/ routes through here). See RunReportWithPipeline for the failure
// semantics.
func RunReport(ctx context.Context, w io.Writer, world *World, opts ReportOptions) error {
	pipe, err := core.NewPipeline(ctx, world, world.Date(world.Config.EndYear), core.Options{Workers: opts.Workers})
	if err != nil {
		return err
	}
	return RunReportWithPipeline(ctx, w, pipe, opts)
}

// RunReportWithPipeline is the staged report runner over an
// already-built pipeline. The report is the InReport sections of
// core.Sections, in table order.
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
func RunReportWithPipeline(ctx context.Context, w io.Writer, pipe *Pipeline, opts ReportOptions) error {
	var sections []core.Section
	for _, sec := range core.Sections {
		if sec.Offer&core.InReport != 0 {
			sections = append(sections, sec)
		}
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
		name := sections[i].Name
		run := reportRun(pipe, sections[i], opts)
		if opts.sectionHook != nil {
			run = opts.sectionHook(name, run)
		}
		sctx, span := obsv.StartSpan(ctx, "section", obsv.KV("name", name))
		outcomes[i] = runSection(sctx, run, opts.SectionTimeout)
		span.SetAttr("status", outcomes[i].status.String())
		if len(outcomes[i].stack) > 0 {
			span.SetAttr("stack", string(outcomes[i].stack))
		}
		span.End()
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
				return fmt.Errorf("report: section %s: %w", sections[i].Name, o.err)
			}
		}
	}

	for i, o := range outcomes {
		text := o.out
		if o.status != statusOK {
			text = diagnosticStanza(sections[i].Name, o)
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

// reportRun is sec's run function in the report: its renderer, or its
// skip placeholder when opts omit it.
func reportRun(pipe *Pipeline, sec core.Section, opts ReportOptions) sectionRun {
	skipped := ""
	switch {
	case sec.Extension != "" && opts.SkipExtensions:
		skipped = "Extension — " + sec.Extension + " skipped (ReportOptions.SkipExtensions)"
	case sec.Name == "stability" && opts.SkipStability:
		skipped = "Finding 8.7 — stability analysis skipped (ReportOptions.SkipStability)"
	}
	if skipped != "" {
		return func(context.Context) (string, error) { return skipped, nil }
	}
	return func(ctx context.Context) (string, error) { return sec.Render(ctx, pipe, opts.StabilityWeeks) }
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
func writeHealthTrailer(w io.Writer, sections []core.Section, outcomes []sectionOutcome, wall time.Duration) error {
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
			if _, err := fmt.Fprintf(w, "health: section=%s status=%s wall=%v\n", sec.Name, o.status, o.wall.Round(time.Microsecond)); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "health: section=%s status=%s wall=%v err=%q\n", sec.Name, o.status, o.wall.Round(time.Microsecond), errText(o.err)); err != nil {
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
