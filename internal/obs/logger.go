package obs

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"dlinfma/internal/obs/trace"
)

// Level is a log severity. Messages below the logger's level are dropped.
type Level int32

// Severities, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return "unknown"
}

// ParseLevel maps a level name to its Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (debug|info|warn|error)", s)
}

// Format selects the line encoding.
type Format int

// Line encodings.
const (
	FormatLogfmt Format = iota
	FormatJSON
)

// ParseFormat maps a format name to its Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "logfmt", "text", "":
		return FormatLogfmt, nil
	case "json":
		return FormatJSON, nil
	}
	return FormatLogfmt, fmt.Errorf("obs: unknown log format %q (logfmt|json)", s)
}

// Logger writes leveled structured lines (key=value or JSON) to one writer.
// All methods are safe on a nil *Logger, which drops everything — callers
// can thread an optional logger without nil checks. Derived loggers from
// With share the writer and mutex, and copy the level.
type Logger struct {
	w      io.Writer
	mu     *sync.Mutex
	level  Level
	format Format
	fields []kv
	// now is the clock, swappable in tests.
	now func() time.Time
}

type kv struct {
	k string
	v any
}

// NewLogger returns a logger writing to w at the given level and format.
func NewLogger(w io.Writer, level Level, format Format) *Logger {
	return &Logger{w: w, mu: &sync.Mutex{}, level: level, format: format, now: time.Now}
}

// Enabled reports whether a message at level would be written.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.level
}

// With returns a logger that adds the given alternating key/value pairs to
// every line. With on a nil logger returns nil.
func (l *Logger) With(pairs ...any) *Logger {
	if l == nil {
		return nil
	}
	d := *l
	d.fields = append(append([]kv(nil), l.fields...), toKVs(pairs)...)
	return &d
}

// WithTrace returns a logger stamping trace_id and span_id from the span
// carried by ctx, so log lines correlate with /v1/debug/traces entries. When
// ctx carries no span (tracing off, background path) it returns l unchanged,
// so the call is safe to make unconditionally on hot log paths.
func (l *Logger) WithTrace(ctx context.Context) *Logger {
	if l == nil {
		return nil
	}
	sp := trace.SpanFromContext(ctx)
	if sp == nil {
		return l
	}
	return l.With("trace_id", sp.TraceID().String(), "span_id", sp.ID().String())
}

// Debug logs at LevelDebug.
func (l *Logger) Debug(msg string, pairs ...any) { l.log(LevelDebug, msg, pairs) }

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, pairs ...any) { l.log(LevelInfo, msg, pairs) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, pairs ...any) { l.log(LevelWarn, msg, pairs) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, pairs ...any) { l.log(LevelError, msg, pairs) }

func toKVs(pairs []any) []kv {
	out := make([]kv, 0, (len(pairs)+1)/2)
	for i := 0; i < len(pairs); i += 2 {
		k, ok := pairs[i].(string)
		if !ok {
			k = fmt.Sprint(pairs[i])
		}
		var v any = "(MISSING)"
		if i+1 < len(pairs) {
			v = pairs[i+1]
		}
		out = append(out, kv{k: k, v: v})
	}
	return out
}

func (l *Logger) log(level Level, msg string, pairs []any) {
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	ts := l.now().UTC().Format(time.RFC3339Nano)
	fields := append(append([]kv(nil), l.fields...), toKVs(pairs)...)
	if l.format == FormatJSON {
		b.WriteString(`{"ts":`)
		b.WriteString(strconv.Quote(ts))
		b.WriteString(`,"level":`)
		b.WriteString(strconv.Quote(level.String()))
		b.WriteString(`,"msg":`)
		b.WriteString(strconv.Quote(msg))
		for _, f := range fields {
			b.WriteByte(',')
			b.WriteString(strconv.Quote(f.k))
			b.WriteByte(':')
			b.WriteString(jsonValue(f.v))
		}
		b.WriteString("}\n")
	} else {
		b.WriteString("ts=")
		b.WriteString(ts)
		b.WriteString(" level=")
		b.WriteString(level.String())
		b.WriteString(" msg=")
		b.WriteString(logfmtValue(msg))
		for _, f := range fields {
			b.WriteByte(' ')
			b.WriteString(f.k)
			b.WriteByte('=')
			b.WriteString(logfmtValue(fmt.Sprint(f.v)))
		}
		b.WriteByte('\n')
	}
	l.mu.Lock()
	_, _ = io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

// jsonValue encodes one field value: numbers and bools raw, everything else
// as a quoted string.
func jsonValue(v any) string {
	switch x := v.(type) {
	case bool:
		return strconv.FormatBool(x)
	case int:
		return strconv.Itoa(x)
	case int32:
		return strconv.FormatInt(int64(x), 10)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	case float32:
		return strconv.FormatFloat(float64(x), 'g', -1, 32)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case time.Duration:
		return strconv.Quote(x.String())
	case error:
		return strconv.Quote(x.Error())
	case string:
		return strconv.Quote(x)
	default:
		return strconv.Quote(fmt.Sprint(x))
	}
}

// logfmtValue quotes a value when it contains logfmt-breaking characters.
func logfmtValue(s string) string {
	if s == "" {
		return `""`
	}
	if strings.ContainsAny(s, " =\"\n\t") {
		return strconv.Quote(s)
	}
	return s
}
