package obs

import (
	"context"
	"time"

	"dlinfma/internal/obs/trace"
)

// Span times one stage of work into a histogram. It is a value type — no
// allocation — so the canonical use is a one-liner:
//
//	defer obs.StartSpan(stageFit).End()
//
// or, when the duration is also needed:
//
//	sp := obs.StartSpan(reinferDur)
//	...
//	d := sp.End()
type Span struct {
	start time.Time
	hist  *HDRHistogram
}

// StartSpan starts a span that will record its duration into hist (nil hist:
// timing only).
func StartSpan(hist *HDRHistogram) Span {
	return Span{start: time.Now(), hist: hist}
}

// End records the elapsed time into the span's histogram and returns it.
func (s Span) End() time.Duration {
	d := time.Since(s.start)
	if s.hist != nil {
		s.hist.Record(d)
	}
	return d
}

// SpanCtx is a Span that additionally participates in the request trace
// carried by the context it was started with. End records into the histogram
// exactly as Span.End does, so metric behaviour is identical whether or not
// a trace is active.
type SpanCtx struct {
	Span
	tsp *trace.Span
}

// StartSpanCtx starts a stage span that both records into hist and, when ctx
// carries an active trace span, records a child span of the same name in the
// trace. With no active trace the trace side is a nil-span no-op and the
// call degrades to StartSpan.
func StartSpanCtx(ctx context.Context, name string, hist *HDRHistogram) SpanCtx {
	_, tsp := trace.Start(ctx, name)
	return SpanCtx{Span: StartSpan(hist), tsp: tsp}
}

// End finishes both sides: the trace span and the histogram record.
func (s SpanCtx) End() time.Duration {
	s.tsp.End()
	return s.Span.End()
}
