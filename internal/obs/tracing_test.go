package obs

import (
	"context"
	"strings"
	"testing"
	"time"

	"dlinfma/internal/obs/trace"
)

// TestStartSpanCtxNoTrace checks the StartSpanCtx contract on untraced
// paths: metric behaviour identical to StartSpan, nil trace side.
func TestStartSpanCtxNoTrace(t *testing.T) {
	r := NewRegistry()
	h := r.HDRHistogram("stage_seconds", "")
	sp := StartSpanCtx(context.Background(), "stage", h)
	if sp.tsp != nil {
		t.Fatal("untraced SpanCtx carries a trace span")
	}
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 || h.total.Load() != 1 || h.Sum() <= 0 {
		t.Fatalf("span end: d=%v count=%d sum=%v", d, h.total.Load(), h.Sum())
	}
}

func TestStartSpanCtxTraced(t *testing.T) {
	r := NewRegistry()
	h := r.HDRHistogram("stage_seconds", "")
	st := trace.NewStore(4)
	tr := trace.NewTracer(trace.Options{SampleProb: 1, Store: st})
	ctx, root := tr.StartRoot(context.Background(), "job", trace.SpanContext{})

	sp := StartSpanCtx(ctx, "fit", h)
	sp.End()
	root.End()

	if n := h.total.Load(); n != 1 {
		t.Fatalf("histogram count = %d, want 1", n)
	}
	got := st.Get(root.TraceID())
	if got == nil {
		t.Fatal("trace not stored")
	}
	byName := map[string]trace.SpanData{}
	for _, sd := range got.Spans {
		byName[sd.Name] = sd
	}
	fit, ok := byName["fit"]
	if !ok || fit.ParentID != byName["job"].SpanID {
		t.Fatalf("fit span %+v not a child of job %+v", fit, byName["job"])
	}
}

func TestLoggerWithTrace(t *testing.T) {
	tr := trace.NewTracer(trace.Options{SampleProb: 1})
	ctx, root := tr.StartRoot(context.Background(), "req", trace.SpanContext{})
	defer root.End()

	var sb strings.Builder
	l := NewLogger(&sb, LevelDebug, FormatLogfmt)
	l.WithTrace(ctx).Info("hello")
	line := sb.String()
	if !strings.Contains(line, "trace_id="+root.TraceID().String()) {
		t.Fatalf("log line missing trace_id: %q", line)
	}
	if !strings.Contains(line, "span_id="+root.ID().String()) {
		t.Fatalf("log line missing span_id: %q", line)
	}

	// No span in ctx: logger returned unchanged, no trace fields.
	sb.Reset()
	l.WithTrace(context.Background()).Info("plain")
	if strings.Contains(sb.String(), "trace_id") {
		t.Fatalf("untraced line has trace_id: %q", sb.String())
	}
	if got := l.WithTrace(context.Background()); got != l {
		t.Fatal("WithTrace without span should return the same logger")
	}

	// Nil logger stays nil.
	var nl *Logger
	if nl.WithTrace(ctx) != nil {
		t.Fatal("nil logger WithTrace not nil")
	}
}
