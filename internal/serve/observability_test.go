package serve

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// logBuffer is a goroutine-safe sink for the access log under test.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDurationSummaryPerRoute checks the RED latency summary appears
// per route in the Prometheus exposition with quantile series.
func TestDurationSummaryPerRoute(t *testing.T) {
	_, srv, reg := newTestServer(t, Options{})
	h := srv.Handler()

	for i := 0; i < 5; i++ {
		if rec := get(h, "/v1/stats", nil); rec.Code != http.StatusOK {
			t.Fatalf("status = %d, want 200", rec.Code)
		}
	}
	if rec := get(h, "/v1/report", nil); rec.Code != http.StatusOK {
		t.Fatalf("report status = %d, want 200", rec.Code)
	}

	if got := reg.Value("serve_request_duration_seconds", "route", "stats"); got != 5 {
		t.Errorf("stats summary count = %d, want 5", got)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE serve_request_duration_seconds summary",
		`serve_request_duration_seconds{route="stats",quantile="0.99"} `,
		`serve_request_duration_seconds_count{route="stats"} 5`,
		`serve_request_duration_seconds{route="report_index",quantile="0.5"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
