package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"strconv"
	"strings"
	"time"

	"dlinfma/internal/obs/trace"
)

// Level is a log severity. Messages below the logger's level are dropped.
type Level = slog.Level

// Severities, least to most severe.
const (
	LevelDebug = slog.LevelDebug
	LevelInfo  = slog.LevelInfo
	LevelWarn  = slog.LevelWarn
	LevelError = slog.LevelError
)

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

// Logger is a handle on a *slog.Logger whose methods are all safe on a nil
// *Logger, which drops everything — callers can thread an optional logger
// without nil checks. Loggers derived with With share their parent's
// handler: its writer, its lock, its level and its format.
type Logger struct {
	s *slog.Logger
}

// NewLogger returns a logger writing to w at the given level and format:
// slog's text handler for logfmt, its JSON handler for JSON. Either way a
// line starts ts (UTC, RFC 3339), level (lowercase) and msg, and a duration
// is written as its String form.
func NewLogger(w io.Writer, level Level, format Format) *Logger {
	opts := &slog.HandlerOptions{Level: level, ReplaceAttr: replaceAttr}
	var h slog.Handler = slog.NewTextHandler(w, opts)
	if format == FormatJSON {
		h = slog.NewJSONHandler(w, opts)
	}
	return &Logger{s: slog.New(h)}
}

// replaceAttr gives both handlers the one line shape: the time key renamed
// ts and written in UTC, the level in lowercase, durations as "1.5s" rather
// than JSON's nanosecond count, and non-finite floats as strings, which JSON
// has no number for.
func replaceAttr(groups []string, a slog.Attr) slog.Attr {
	v := a.Value
	switch v.Kind() {
	case slog.KindTime:
		if len(groups) == 0 && a.Key == slog.TimeKey {
			return slog.String("ts", v.Time().UTC().Format(time.RFC3339Nano))
		}
	case slog.KindDuration:
		return slog.String(a.Key, v.Duration().String())
	case slog.KindFloat64:
		if f := v.Float64(); math.IsNaN(f) || math.IsInf(f, 0) {
			return slog.String(a.Key, strconv.FormatFloat(f, 'g', -1, 64))
		}
	case slog.KindAny:
		if lv, ok := v.Any().(slog.Level); ok && len(groups) == 0 && a.Key == slog.LevelKey {
			return slog.String(a.Key, strings.ToLower(lv.String()))
		}
	}
	return a
}

// Enabled reports whether a message at level would be written.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && l.s.Enabled(context.Background(), level)
}

// With returns a logger that adds the given alternating key/value pairs to
// every line. With on a nil logger returns nil.
func (l *Logger) With(pairs ...any) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{s: l.s.With(pairs...)}
}

// WithTrace returns a logger stamping trace_id and span_id from the span
// carried by ctx, so log lines correlate with /v1/debug/traces entries. When
// ctx carries no span (tracing off, background path) it returns l unchanged.
// The fields are encoded when they are bound, so a hot path guards the call
// with Enabled.
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

func (l *Logger) log(level Level, msg string, pairs []any) {
	if l != nil {
		l.s.Log(context.Background(), level, msg, pairs...)
	}
}
