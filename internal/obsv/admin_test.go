package obsv

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("demo_requests_total", "demo").Add(9)
	tr := NewTracer()
	_, sp := StartSpan(ContextWithTracer(context.Background(), tr), "boot")
	sp.End()

	healthy := true
	a := &Admin{
		Registry: reg,
		Tracer:   tr,
		Healthz: func() Health {
			return Health{OK: healthy, Detail: map[string]string{"peers": "3", "draining": "false"}}
		},
	}
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Shutdown(context.Background())
	base := "http://" + addr.String()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.Contains(body, "demo_requests_total 9") {
		t.Errorf("/metrics missing series:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE demo_requests_total counter") {
		t.Errorf("/metrics missing TYPE comment:\n%s", body)
	}

	code, body = get(t, base+"/healthz")
	if code != http.StatusOK || !strings.HasPrefix(body, "ok\n") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	// Detail lines render sorted.
	if !strings.Contains(body, "draining=false\npeers=3\n") {
		t.Errorf("/healthz detail not sorted:\n%s", body)
	}

	healthy = false
	code, body = get(t, base+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.HasPrefix(body, "degraded\n") {
		t.Errorf("degraded /healthz = %d %q", code, body)
	}

	code, body = get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	code, body = get(t, base+"/debug/trace")
	if code != http.StatusOK || !strings.Contains(body, "boot") {
		t.Errorf("/debug/trace = %d %q", code, body)
	}
	// The index lists exactly the routes above.
	code, body = get(t, base+"/")
	if want := "manrsmeter admin endpoint\n/metrics\n/healthz\n/debug/pprof/\n/debug/trace\n"; code != http.StatusOK || body != want {
		t.Errorf("index = %d %q, want %q", code, body, want)
	}
	code, _ = get(t, base+"/nope")
	if code != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", code)
	}
}

func TestAdminShutdownGraceful(t *testing.T) {
	a := &Admin{Registry: NewRegistry()}
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Error("endpoint still answering after shutdown")
	}
	// Second shutdown and post-shutdown Listen refusal.
	if err := a.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
	if _, err := a.Listen("127.0.0.1:0"); err == nil {
		t.Error("Listen after shutdown should fail")
	}
}

func TestZeroAdminUsesDefaultRegistry(t *testing.T) {
	NewCounter("obsv_test_default_total", "registered on Default").Add(4)
	a := &Admin{}
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Shutdown(context.Background())
	code, body := get(t, "http://"+addr.String()+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "obsv_test_default_total 4") {
		t.Errorf("Default registry not served: %d\n%s", code, body)
	}
	code, body = get(t, "http://"+addr.String()+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Errorf("nil Healthz = %d %q", code, body)
	}
}
