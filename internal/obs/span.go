package obs

import (
	"context"
	"time"

	"dlinfma/internal/obs/trace"
)

// Span times one stage of work into a histogram. It is a value type — no
// allocation — so the canonical use is a one-liner:
//
//	defer obs.StartSpan("fit", stageFit).End()
//
// or, when the duration is also needed:
//
//	sp := obs.StartSpan("reinfer", reinferDur)
//	...
//	d := sp.End()
type Span struct {
	name  string
	start time.Time
	hist  *HDRHistogram
}

// StartSpan starts a span that will record its duration into hist (nil hist:
// timing only).
func StartSpan(name string, hist *HDRHistogram) Span {
	return Span{name: name, start: time.Now(), hist: hist}
}

// Name returns the span's stage name.
func (s Span) Name() string { return s.name }

// End records the elapsed time into the span's histogram and returns it.
func (s Span) End() time.Duration {
	d := time.Since(s.start)
	if s.hist != nil {
		s.hist.Record(d)
	}
	return d
}

// EndLog is End plus a debug line on l with the duration and extra pairs.
func (s Span) EndLog(l *Logger, pairs ...any) time.Duration {
	d := s.End()
	if l.Enabled(LevelDebug) {
		l.Debug(s.name, append([]any{"dur", d}, pairs...)...)
	}
	return d
}

// SpanCtx is a Span that additionally participates in the request trace
// carried by the context it was started with. End records into the histogram
// exactly as Span.End does, so metric behaviour is identical whether or not
// a trace is active.
type SpanCtx struct {
	Span
	ctx context.Context
	tsp *trace.Span
}

// StartSpanCtx starts a stage span that both records into hist and, when ctx
// carries an active trace span, records a child span of the same name in the
// trace. With no active trace the trace side is a nil-span no-op and the
// call degrades to StartSpan.
func StartSpanCtx(ctx context.Context, name string, hist *HDRHistogram) SpanCtx {
	tctx, tsp := trace.Start(ctx, name)
	return SpanCtx{Span: StartSpan(name, hist), ctx: tctx, tsp: tsp}
}

// Context returns the context carrying the trace span, for passing to nested
// stages so their spans parent under this one.
func (s SpanCtx) Context() context.Context { return s.ctx }

// TraceSpan returns the underlying trace span (nil when no trace is active)
// for attaching attributes or errors.
func (s SpanCtx) TraceSpan() *trace.Span { return s.tsp }

// End finishes both sides: the trace span and the histogram record.
func (s SpanCtx) End() time.Duration {
	s.tsp.End()
	return s.Span.End()
}
