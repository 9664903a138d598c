package deploy

import (
	"net/http"
	"slices"
	"sort"
	"strconv"
	"time"

	"dlinfma/internal/deploy/api"
	"dlinfma/internal/obs/trace"
)

// maxTraceList bounds a list response when the client sends no limit.
const maxTraceList = 100

// maxTraceListLimit is the hard ceiling on an explicit ?limit=: the ring
// buffer behind the store is itself bounded, so anything larger is a typo.
const maxTraceListLimit = 10000

// traceListParams is the full query-parameter vocabulary of
// GET /v1/debug/traces. Anything else is rejected with invalid_argument
// rather than silently ignored — a typo like ?min_duration= must not turn a
// filtered query into an unfiltered one.
var traceListParams = []string{"limit", "min_dur", "error"}

// traceListHandler serves GET /v1/debug/traces: recent kept traces, newest
// first, filtered by ?min_dur= (Go duration), ?error=true, and ?limit=. A
// nil tracer or store answers an empty list — the endpoint is always
// mounted so operators can probe whether tracing is on.
func traceListHandler(t *trace.Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		f := trace.Filter{Limit: maxTraceList}
		q := r.URL.Query()
		for name := range q {
			if !slices.Contains(traceListParams, name) {
				writeError(w, http.StatusBadRequest, api.CodeInvalidArgument,
					"unknown query parameter", map[string]any{"param": name, "allowed": traceListParams})
				return
			}
		}
		if v := q.Get("min_dur"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				writeError(w, http.StatusBadRequest, api.CodeInvalidArgument,
					"min_dur must be a Go duration (e.g. 250ms)", map[string]any{"min_dur": v})
				return
			}
			f.MinDuration = d
		}
		if v := q.Get("error"); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				writeError(w, http.StatusBadRequest, api.CodeInvalidArgument,
					"error must be a boolean", map[string]any{"error": v})
				return
			}
			f.ErrorOnly = b
		}
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 || n > maxTraceListLimit {
				writeError(w, http.StatusBadRequest, api.CodeInvalidArgument,
					"limit must be a positive integer", map[string]any{"limit": v, "max": maxTraceListLimit})
				return
			}
			f.Limit = n
		}
		resp := api.TraceListResponse{Traces: []api.TraceSummary{}}
		for _, tr := range t.Store().List(f) {
			resp.Traces = append(resp.Traces, api.TraceSummary{
				TraceID:    tr.ID.String(),
				Root:       tr.Root,
				Start:      tr.Start,
				DurationMS: durMS(tr.Duration),
				Spans:      len(tr.Spans),
				Dropped:    tr.Dropped,
				Error:      tr.Error,
			})
		}
		resp.Count = len(resp.Traces)
		writeJSON(w, http.StatusOK, resp)
	}
}

// traceGetHandler serves GET /v1/debug/traces/{id}: the span tree of one
// buffered trace.
func traceGetHandler(t *trace.Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		raw := r.PathValue("id")
		id, err := trace.ParseTraceID(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, api.CodeInvalidArgument,
				"trace id must be 32 hex characters", map[string]any{"id": raw})
			return
		}
		tr := t.Store().Get(id)
		if tr == nil {
			writeError(w, http.StatusNotFound, api.CodeNotFound,
				"trace not buffered (expired, unsampled, or never existed)", map[string]any{"id": raw})
			return
		}
		writeJSON(w, http.StatusOK, traceResponse(tr))
	}
}

// traceResponse assembles the flat span records into the wire-format tree:
// one pass building a node per span, one pass linking children (a span whose
// parent record was dropped becomes an extra root), children sorted by start
// time so the tree reads in execution order.
func traceResponse(tr *trace.Trace) api.TraceResponse {
	nodes := make(map[string]*api.TraceSpan, len(tr.Spans))
	for _, sd := range tr.Spans {
		n := &api.TraceSpan{
			SpanID:     sd.SpanID,
			ParentID:   sd.ParentID,
			Name:       sd.Name,
			Start:      sd.Start,
			DurationMS: durMS(sd.Duration),
			Error:      sd.Error,
		}
		if len(sd.Attrs) > 0 {
			n.Attrs = make(map[string]any, len(sd.Attrs))
			for _, a := range sd.Attrs {
				n.Attrs[a.Key] = a.Value
			}
		}
		nodes[sd.SpanID] = n
	}
	resp := api.TraceResponse{
		TraceID:      tr.ID.String(),
		DurationMS:   durMS(tr.Duration),
		Error:        tr.Error,
		DroppedSpans: tr.Dropped,
	}
	for _, sd := range tr.Spans {
		n := nodes[sd.SpanID]
		if p, ok := nodes[sd.ParentID]; ok && sd.ParentID != "" {
			p.Children = append(p.Children, n)
		} else {
			resp.Spans = append(resp.Spans, n)
		}
	}
	var sortTree func(ns []*api.TraceSpan)
	sortTree = func(ns []*api.TraceSpan) {
		sort.Slice(ns, func(i, j int) bool { return ns[i].Start.Before(ns[j].Start) })
		for _, n := range ns {
			sortTree(n.Children)
		}
	}
	sortTree(resp.Spans)
	return resp
}

// durMS renders a duration as fractional milliseconds for the wire.
func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
