package trace

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"
)

// maxSpans bounds the spans recorded per trace: enough for a sharded fan-out
// with per-stage children, small enough that a runaway loop cannot hold the
// heap hostage. Spans past the cap still time and propagate, they just count
// as dropped.
const maxSpans = 512

// Options configures a Tracer.
type Options struct {
	// SampleProb is the head-sampling probability in [0,1]: the chance a
	// fresh root (no incoming traceparent) is kept regardless of outcome.
	// Incoming traceparent headers carry the upstream decision instead.
	SampleProb float64
	// SlowThreshold is the tail rule: a trace whose root ran at least this
	// long is kept even when head sampling passed on it. 0 disables the rule.
	SlowThreshold time.Duration
	// Store receives completed kept traces; nil discards them (spans then
	// only feed histograms and log correlation).
	Store *Store
}

// Tracer starts root spans, carries the sampling policy, and publishes
// finished traces into its store. A nil *Tracer is a valid no-op.
type Tracer struct {
	prob  float64
	slow  time.Duration
	store *Store
}

// NewTracer returns a tracer with the given options.
func NewTracer(o Options) *Tracer {
	return &Tracer{prob: o.SampleProb, slow: o.SlowThreshold, store: o.Store}
}

// Store returns the tracer's trace buffer (nil on a nil tracer or when none
// was configured).
func (t *Tracer) Store() *Store {
	if t == nil {
		return nil
	}
	return t.store
}

// state accumulates one trace in flight: every span appends its record here
// on End, and the root's End decides whether the whole trace is kept.
type state struct {
	tracer  *Tracer
	id      TraceID
	sampled bool

	mu      sync.Mutex
	spans   []SpanData
	dropped int
	errSeen bool
	done    bool
}

// Span is one timed operation inside a trace. A span is owned by the
// goroutine that started it (its attributes are not synchronized);
// sibling spans on other goroutines are fine — the shared trace record is.
// All methods are safe on a nil *Span.
type Span struct {
	st     *state
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	root   bool
	attrs  []Attr
	err    string
	ended  bool
}

type ctxKey struct{}

// ContextWithSpan returns ctx carrying sp as the active span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the active span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// StartRoot starts the root span of a trace. A valid parent (extracted from
// an incoming traceparent) continues the caller's trace — same trace id,
// remote span as parent, remote sampling decision; the zero SpanContext
// mints a fresh trace id and rolls the head sampler. The returned context
// carries the span for Start and obs.StartSpanCtx below it.
func (t *Tracer) StartRoot(ctx context.Context, name string, parent SpanContext) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	st := &state{tracer: t}
	var psid SpanID
	if parent.IsValid() {
		st.id = parent.TraceID
		st.sampled = parent.Sampled
		psid = parent.SpanID
	} else {
		st.id = randTraceID()
		st.sampled = t.prob >= 1 || (t.prob > 0 && rand.Float64() < t.prob)
	}
	sp := &Span{st: st, id: randSpanID(), parent: psid, name: name, start: time.Now(), root: true}
	return ContextWithSpan(ctx, sp), sp
}

// Start starts a child of the span carried by ctx. When ctx carries none —
// tracing off, or a call path outside any request — it returns (ctx, nil)
// and the nil span absorbs every later call, so instrumentation is free on
// untraced paths.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := &Span{st: parent.st, id: randSpanID(), parent: parent.id, name: name, start: time.Now()}
	return ContextWithSpan(ctx, sp), sp
}

// ID returns the span's id (zero on nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// TraceID returns the id of the trace the span belongs to (zero on nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.st.id
}

// Context returns the span's propagated identity.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.st.id, SpanID: s.id, Sampled: s.st.sampled}
}

// Traceparent renders the span's identity as a W3C traceparent value — what
// an outbound call (or the response echo) should carry.
func (s *Span) Traceparent() string { return s.Context().Traceparent() }

// SetAttr attaches one key/value attribute to the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil || s.ended {
		return
	}
	if s.attrs == nil {
		// Spans that set one attribute usually set a few (the HTTP root sets
		// method/path/request_id/status); one cap-4 block avoids the
		// append-growth churn on every traced request.
		s.attrs = make([]Attr, 0, 4)
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// RecordError marks the span errored. Any errored span makes the whole
// trace eligible for the tail keep rule.
func (s *Span) RecordError(err error) {
	if s == nil || s.ended || err == nil {
		return
	}
	s.err = err.Error()
}

// End finishes the span and appends its record to the trace. Ending the
// root seals the trace and publishes it to the tracer's store when the head
// sample said yes, any span errored, or the root ran past SlowThreshold.
// Spans ending after their root (stragglers from an abandoned fan-out) are
// dropped. End is idempotent.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	end := time.Now()
	st := s.st
	sd := SpanData{
		TraceID:  st.id.String(),
		SpanID:   s.id.String(),
		Name:     s.name,
		Start:    s.start,
		Duration: end.Sub(s.start),
		Attrs:    s.attrs,
		Error:    s.err,
	}
	if !s.parent.IsZero() {
		sd.ParentID = s.parent.String()
	}
	st.mu.Lock()
	if !st.done {
		if len(st.spans) < maxSpans {
			st.spans = append(st.spans, sd)
		} else {
			st.dropped++
		}
		if s.err != "" {
			st.errSeen = true
		}
	}
	if !s.root {
		st.mu.Unlock()
		return
	}
	st.done = true
	spans, dropped, errSeen := st.spans, st.dropped, st.errSeen
	st.mu.Unlock()

	dur := end.Sub(s.start)
	keep := st.sampled || errSeen || (st.tracer.slow > 0 && dur >= st.tracer.slow)
	if keep && st.tracer.store != nil {
		st.tracer.store.Add(&Trace{
			ID:       st.id,
			Root:     s.name,
			Start:    s.start,
			Duration: dur,
			Error:    errSeen,
			Dropped:  dropped,
			Spans:    spans,
		})
	}
}
