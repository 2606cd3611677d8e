package obsv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// captureLog redirects the standard logger, which Drain reports to, for
// the rest of the test.
func captureLog(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	log.SetOutput(&buf)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return &buf
}

// TestDrain: the stop functions run in order under one deadline of at
// most drainTimeout, the admin endpoint drains after them, and a clean
// run says so.
func TestDrain(t *testing.T) {
	logs := captureLog(t)
	listen := "127.0.0.1:0"
	e := &AdminEndpoint{addr: &listen}
	bound, err := e.Start(&Admin{Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	healthz := fmt.Sprintf("http://%s/healthz", bound)

	var order []string
	err = e.Drain(
		func(ctx context.Context) error {
			order = append(order, "first")
			if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > drainTimeout {
				t.Errorf("stop context deadline in %v (set %v), want at most %v", time.Until(dl), ok, drainTimeout)
			}
			resp, err := http.Get(healthz)
			if err != nil {
				t.Errorf("admin endpoint closed before the stop functions ran: %v", err)
				return nil
			}
			resp.Body.Close()
			return nil
		},
		func(ctx context.Context) error {
			order = append(order, "second")
			return nil
		})
	if err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
	if got := strings.Join(order, ","); got != "first,second" {
		t.Errorf("stop functions ran as %q, want first,second", got)
	}
	if _, err := http.Get(healthz); err == nil {
		t.Error("admin endpoint still answering after Drain")
	}
	for _, want := range []string{"shutting down (draining up to 5s)", "drained cleanly"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, logs)
		}
	}
}

// TestDrainJoinsFailures: a failing stop does not skip the ones after
// it, every cause survives in the joined error, and the run is not
// reported clean.
func TestDrainJoinsFailures(t *testing.T) {
	logs := captureLog(t)
	errA, errB := errors.New("stop a"), errors.New("stop b")
	ran := 0
	step := func(err error) func(context.Context) error {
		return func(context.Context) error { ran++; return err }
	}
	err := (&AdminEndpoint{addr: new(string)}).Drain(step(errA), step(nil), step(errB))
	if ran != 3 {
		t.Errorf("%d stop functions ran, want all 3", ran)
	}
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Errorf("Drain = %v, want both causes reachable by errors.Is", err)
	}
	if strings.Contains(logs.String(), "drained cleanly") {
		t.Errorf("failed drain logged as clean:\n%s", logs)
	}
}

// TestDrainNeverStarted: with -admin left empty the endpoint step is a
// no-op, so a daemon without stop failures drains cleanly.
func TestDrainNeverStarted(t *testing.T) {
	logs := captureLog(t)
	e := &AdminEndpoint{addr: new(string)}
	if addr, err := e.Start(&Admin{}); addr != nil || err != nil {
		t.Fatalf("Start with an empty address = %v, %v; want nil, nil", addr, err)
	}
	if err := e.Drain(); err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
	if !strings.Contains(logs.String(), "drained cleanly") {
		t.Errorf("log lacks the clean-drain line:\n%s", logs)
	}
}
