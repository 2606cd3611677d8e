package manrsmeter

import (
	"bytes"
	"context"
	"errors"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// wallRe normalizes the run-varying wall times in health trailers so
// degraded reports can be compared byte-for-byte across worker counts.
var wallRe = regexp.MustCompile(`wall=[^ \n]+`)

func normalizeHealth(s string) string { return wallRe.ReplaceAllString(s, "wall=X") }

// degradedPipe builds one pipeline reused by the degraded-mode tests
// (pipeline construction dominates their cost).
func degradedPipe(t *testing.T) *Pipeline {
	t.Helper()
	world, err := GenerateWorld(smallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewPipeline(world)
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

// faultHook forces fig6-saturation to panic and fig9-preference to stall
// until its context dies — the two failure modes the watchdog and the
// panic isolation exist for.
func faultHook(name string, run sectionRun) sectionRun {
	switch name {
	case "fig6-saturation":
		return func(context.Context) (string, error) { panic("injected section panic") }
	case "fig9-preference":
		return func(ctx context.Context) (string, error) {
			<-ctx.Done()
			return "", ctx.Err()
		}
	}
	return run
}

// TestRunReportDegradedContinueOnError is the acceptance scenario: one
// section panics, another runs past its watchdog, and the degraded run
// still completes — diagnostic stanzas in paper order, health trailer
// at the end, nil error — with identical bytes across worker counts.
func TestRunReportDegradedContinueOnError(t *testing.T) {
	pipe := degradedPipe(t)
	render := func(workers int) string {
		var buf bytes.Buffer
		err := RunReportWithPipeline(context.Background(), &buf, pipe, ReportOptions{
			SkipStability:   true,
			SkipExtensions:  true,
			Workers:         workers,
			SectionTimeout:  3 * time.Second,
			ContinueOnError: true,
			sectionHook:     faultHook,
		})
		if err != nil {
			t.Fatalf("workers=%d: degraded run errored: %v", workers, err)
		}
		return buf.String()
	}

	out := render(2)
	panicAt := strings.Index(out, "!! section fig6-saturation unavailable (panicked)")
	timeoutAt := strings.Index(out, "!! section fig9-preference unavailable (timed-out)")
	if panicAt < 0 || timeoutAt < 0 {
		t.Fatalf("missing diagnostic stanzas:\n%s", out)
	}
	if panicAt > timeoutAt {
		t.Error("stanzas out of paper order: fig6-saturation must precede fig9-preference")
	}
	if !strings.Contains(out, "injected section panic") {
		t.Error("panic value missing from the diagnostic stanza")
	}
	if !strings.Contains(out, "timed out after 3s") {
		t.Error("watchdog timeout missing from the diagnostic stanza")
	}
	trailerAt := strings.Index(out, "health: sections=17 ok=15 failed=0 panicked=1 timed-out=1 canceled=0")
	if trailerAt < 0 {
		t.Fatalf("health trailer summary missing or wrong:\n%s", out)
	}
	if trailerAt < timeoutAt {
		t.Error("health trailer must come after every section slot")
	}
	if !strings.Contains(out, `health: section=fig6-saturation status=panicked`) ||
		!strings.Contains(out, `health: section=fig9-preference status=timed-out`) {
		t.Error("per-section health lines missing")
	}
	// Healthy sections still render: the report is degraded, not empty.
	if !strings.Contains(out, "health: section=fig2-growth status=ok") {
		t.Error("healthy section missing from health trailer")
	}

	if normalizeHealth(render(8)) != normalizeHealth(out) {
		t.Error("degraded report differs across worker counts (after wall-time normalization)")
	}
}

// TestRunReportStrictLowestIndexError: the same faults without
// ContinueOnError abort the report with the lowest-index section's
// error — the panic in fig6-saturation, not the later timeout.
func TestRunReportStrictLowestIndexError(t *testing.T) {
	pipe := degradedPipe(t)
	var buf bytes.Buffer
	err := RunReportWithPipeline(context.Background(), &buf, pipe, ReportOptions{
		SkipStability:  true,
		SkipExtensions: true,
		Workers:        4,
		SectionTimeout: 3 * time.Second,
		sectionHook:    faultHook,
	})
	if err == nil {
		t.Fatal("strict run with a panicking section returned nil")
	}
	if !strings.Contains(err.Error(), "section fig6-saturation") || !strings.Contains(err.Error(), "injected section panic") {
		t.Errorf("err = %v, want the fig6-saturation panic (lowest failing index)", err)
	}
	if buf.Len() != 0 {
		t.Error("strict mode wrote partial report output before failing")
	}
}

// TestRunReportSectionTimeoutChaos drives the watchdog across every
// section at once: each section stalls until canceled, so all either
// time out or are skipped, and the runner must still emit a complete
// degraded report without leaking goroutines. This is the
// section-timeout chaos gate run under -race by scripts/check.sh.
func TestRunReportSectionTimeoutChaos(t *testing.T) {
	pipe := degradedPipe(t)
	before := runtime.NumGoroutine()
	var buf bytes.Buffer
	err := RunReportWithPipeline(context.Background(), &buf, pipe, ReportOptions{
		SkipStability:   true,
		SkipExtensions:  true,
		Workers:         4,
		SectionTimeout:  50 * time.Millisecond,
		ContinueOnError: true,
		sectionHook: func(name string, run sectionRun) sectionRun {
			return func(ctx context.Context) (string, error) {
				<-ctx.Done()
				return "", ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatalf("chaos run errored: %v", err)
	}
	out := buf.String()
	if got := strings.Count(out, "status=timed-out"); got != 17 {
		t.Errorf("timed-out sections = %d, want all 17:\n%s", got, out)
	}
	if !strings.Contains(out, "health: sections=17 ok=0") {
		t.Errorf("health summary missing:\n%s", out)
	}
	waitForGoroutineBaseline(t, before)
}

// TestRunReportCancelDrains sends cancellation (the SIGINT path) into a
// running report and requires a prompt, clean unwind: a canceled error,
// completed sections flushed under ContinueOnError, and the goroutine
// count back at baseline.
func TestRunReportCancelDrains(t *testing.T) {
	pipe := degradedPipe(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var buf bytes.Buffer
	errc := make(chan error, 1)
	go func() {
		errc <- RunReportWithPipeline(ctx, &buf, pipe, ReportOptions{
			SkipStability:   true,
			SkipExtensions:  true,
			Workers:         2,
			ContinueOnError: true,
			sectionHook: func(name string, run sectionRun) sectionRun {
				if name != "fig9-preference" {
					return run
				}
				return func(ctx context.Context) (string, error) {
					close(started)
					<-ctx.Done()
					return "", ctx.Err()
				}
			},
		})
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("report did not unwind within the drain bound after cancellation")
	}
	if !strings.Contains(buf.String(), "health: sections=17") {
		t.Error("interrupted ContinueOnError run lost its health trailer")
	}
	waitForGoroutineBaseline(t, before)
}

func waitForGoroutineBaseline(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at baseline, %d now", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
