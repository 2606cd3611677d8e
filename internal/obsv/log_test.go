package obsv

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func fixedClock() time.Time {
	return time.Date(2022, 5, 1, 12, 0, 0, 0, time.UTC)
}

func TestLoggerFormatAndScoping(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(&buf, LevelInfo)
	l.clock = fixedClock
	rtrd := l.With("rtrd")
	sess := rtrd.With("session")

	sess.Info("client connected", "addr", "127.0.0.1:9", "vrps", 42)
	rtrd.Warn("slow write", "took", "1.5s and counting")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	want0 := `ts=2022-05-01T12:00:00Z level=info component=rtrd.session msg="client connected" addr=127.0.0.1:9 vrps=42`
	if lines[0] != want0 {
		t.Errorf("line 0 = %q, want %q", lines[0], want0)
	}
	if !strings.Contains(lines[1], `component=rtrd`) || !strings.Contains(lines[1], `took="1.5s and counting"`) {
		t.Errorf("line 1 = %q", lines[1])
	}
}

func TestLoggerLevelShared(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(&buf, LevelWarn)
	scoped := l.With("x")
	scoped.Info("dropped")
	scoped.Warn("kept")
	if !strings.Contains(buf.String(), "kept") || strings.Contains(buf.String(), "dropped") {
		t.Errorf("shared level not honored:\n%s", buf.String())
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Info("nothing")
	l.With("x").Error("nothing")
	if l.Enabled(LevelError) {
		t.Error("nil logger claims enabled")
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var mu sync.Mutex
	var lines int
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		lines += strings.Count(string(p), "\n")
		mu.Unlock()
		return len(p), nil
	})
	l := NewLogger(w, LevelInfo)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l.With("worker").Info("tick", "j", j)
			}
		}()
	}
	wg.Wait()
	if lines != 8*200 {
		t.Errorf("lines = %d, want %d", lines, 8*200)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
