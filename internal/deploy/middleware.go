package deploy

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"

	"dlinfma/internal/obs"
	"dlinfma/internal/obs/trace"
)

// routeOther is the metric label of every unmatched path, bounding the
// route label's cardinality to the registered table plus one.
const routeOther = "other"

// HTTP-surface metrics. The route label is always a registered pattern
// (never a raw request path), so cardinality is fixed.
var (
	httpRequests = obs.Default.CounterVec("dlinfma_http_requests_total",
		"HTTP requests by route pattern, method, and status code.",
		"route", "method", "code")
	// Log-linear HDR buckets: the read path answers in single-digit
	// microseconds, where fixed bounds collapse p50 and p99 into one bucket.
	httpDuration = obs.Default.HDRHistogramVec("dlinfma_http_request_duration_seconds",
		"HTTP request latency by route pattern (log-linear HDR buckets).",
		"route")
	httpInFlight = obs.Default.Gauge("dlinfma_http_in_flight_requests",
		"Requests currently being handled.")
)

// statusRecorder captures the status code and body size a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// Flush forwards streaming flushes (snapshot downloads) to the underlying
// writer when it supports them.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// recorderPool recycles statusRecorders across requests. Handlers in this
// codebase never retain the ResponseWriter past ServeHTTP, so the recorder
// can be reset and reused once the middleware has read its status and size.
var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// requestIDKey carries the per-request correlation id in the context.
type requestIDKey struct{}

// RequestID returns the correlation id Instrument assigned to the request
// carried by ctx ("" outside an instrumented request).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// Instrument wraps a handler in the request-scoped middleware: correlation
// id (an incoming X-Request-ID is honored, otherwise one is minted) echoed
// on every response, a root trace span per request continuing an incoming
// W3C traceparent (tracer nil: tracing off, everything else unchanged),
// request count and latency by route and status, an in-flight gauge, and a
// per-request access line on log at debug level. Every route of the service
// — and any embedding of deploy handlers elsewhere — goes through it.
//
// Counter children are cached per (method, status) behind a comparable-key
// map so the steady-state path never allocates the label key; the generic
// Vec.With (which joins the values into a string) runs only on the first
// request of each combination.
func Instrument(route string, log *obs.Logger, tracer *trace.Tracer, h http.Handler) http.Handler {
	hist := httpDuration.With(route)
	type methodCode struct {
		method string
		code   int
	}
	var (
		countersMu sync.RWMutex
		counters   = make(map[methodCode]*obs.Counter)
	)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpInFlight.Inc()
		defer httpInFlight.Dec()

		// Correlation id and root span land in the response headers before
		// the handler runs, so error envelopes and streamed bodies carry
		// them too (headers are immutable after the first write).
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = trace.NewRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		ctx := context.WithValue(r.Context(), requestIDKey{}, reqID)

		var tsp *trace.Span
		if tracer != nil {
			parent, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
			ctx, tsp = tracer.StartRoot(ctx, route, parent)
			tsp.SetAttr("method", r.Method)
			tsp.SetAttr("path", r.URL.Path)
			tsp.SetAttr("request_id", reqID)
			w.Header().Set("Traceparent", tsp.Traceparent())
		}
		r = r.WithContext(ctx)

		sp := obs.StartSpan(hist)
		rec := recorderPool.Get().(*statusRecorder)
		*rec = statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		d := sp.End()
		status, size := rec.status, rec.bytes
		rec.ResponseWriter = nil
		recorderPool.Put(rec)
		tsp.SetAttr("status", status)
		if status >= http.StatusInternalServerError {
			tsp.RecordError(errors.New("http " + strconv.Itoa(status)))
		}
		tsp.End()
		mc := methodCode{r.Method, status}
		countersMu.RLock()
		c := counters[mc]
		countersMu.RUnlock()
		if c == nil {
			c = httpRequests.With(route, r.Method, strconv.Itoa(status))
			countersMu.Lock()
			counters[mc] = c
			countersMu.Unlock()
		}
		c.Inc()
		if log.Enabled(obs.LevelDebug) {
			log.WithTrace(ctx).Debug("http",
				"method", r.Method,
				"path", r.URL.Path,
				"route", route,
				"status", status,
				"bytes", size,
				"dur", d,
				"request_id", reqID,
			)
		}
	})
}

// metricsExposition serves the process-wide obs registry in Prometheus text
// format — the GET /v1/metrics handler, also mounted on the debug listener.
func metricsExposition(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default.WritePrometheus(w)
}
