package obsv

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level is a log severity. Records below the logger's level are
// dropped before formatting.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// Logger writes leveled key=value records. Loggers derived with With
// share the sink, mutex, and level. A nil *Logger drops everything, so
// components can take an optional logger without conditionals.
type Logger struct {
	mu        *sync.Mutex
	w         io.Writer
	level     Level
	component string
	clock     func() time.Time // test hook; nil means time.Now
}

// NewLogger returns a logger writing to w at the given level.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{mu: &sync.Mutex{}, w: w, level: level}
}

// With returns a logger scoped to a component; records carry
// component=name. Derived loggers share the parent's sink and level.
func (l *Logger) With(component string) *Logger {
	if l == nil {
		return nil
	}
	scoped := *l
	if l.component != "" {
		scoped.component = l.component + "." + component
	} else {
		scoped.component = component
	}
	return &scoped
}

// Enabled reports whether records at level would be written.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.level
}

// Info/Warn/Error write one record at that severity. kv are
// alternating key, value pairs; values are formatted with %v and
// quoted when they contain spaces.
func (l *Logger) Info(msg string, kv ...any)  { l.log(LevelInfo, msg, kv) }
func (l *Logger) Warn(msg string, kv ...any)  { l.log(LevelWarn, msg, kv) }
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	now := time.Now
	if l.clock != nil {
		now = l.clock
	}
	var b strings.Builder
	b.WriteString("ts=")
	b.WriteString(now().UTC().Format(time.RFC3339Nano))
	b.WriteString(" level=")
	b.WriteString(level.String())
	if l.component != "" {
		b.WriteString(" component=")
		b.WriteString(l.component)
	}
	b.WriteString(" msg=")
	b.WriteString(quoteIfNeeded(msg))
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		b.WriteString(fmt.Sprint(kv[i]))
		b.WriteByte('=')
		b.WriteString(quoteIfNeeded(fmt.Sprint(kv[i+1])))
	}
	if len(kv)%2 == 1 {
		b.WriteString(" !MISSING-VALUE=")
		b.WriteString(quoteIfNeeded(fmt.Sprint(kv[len(kv)-1])))
	}
	b.WriteByte('\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = io.WriteString(l.w, b.String())
}

// quoteIfNeeded wraps values containing whitespace, quotes, or '=' in
// Go-quoted form so records stay splittable on spaces.
func quoteIfNeeded(s string) string {
	if s == "" {
		return `""`
	}
	if strings.ContainsAny(s, " \t\n\"=") {
		return fmt.Sprintf("%q", s)
	}
	return s
}
