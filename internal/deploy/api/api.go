// Package api defines the versioned wire schema of the serving system's
// HTTP surface: the typed request/response structs of every /v1 route and
// the uniform JSON error envelope all handlers emit. The package holds data
// only — handlers live in internal/deploy — so clients, tests, and tools can
// import the schema without pulling in the server.
//
// Versioning policy: routes live under /v1/...; fields are only ever added
// (never renamed or repurposed) within a major version, and a breaking
// change mints /v2 alongside a deprecated /v1.
package api

import (
	"time"

	"dlinfma/internal/model"
)

// Stable machine-readable error codes. Clients switch on Code, never on
// Message text.
const (
	// CodeInvalidArgument: malformed path key, query parameter, or body.
	CodeInvalidArgument = "invalid_argument"
	// CodeNotFound: the address (or job) does not exist.
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: the route exists but not for this HTTP method.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeEngineNotReady: no serving state deployed yet (cold engine) — load
	// balancers should retry another instance. Maps to 503.
	CodeEngineNotReady = "engine_not_ready"
	// CodeReinferInFlight: a re-inference job is already running. Maps to
	// 409; details carry the running job.
	CodeReinferInFlight = "reinfer_in_flight"
	// CodeBackpressure: the engine's ingest backlog is full (pending trips at
	// the configured bound); producers should back off and retry after the
	// next re-inference drains it. Maps to 429.
	CodeBackpressure = "backpressure"
	// CodeUnimplemented: the route exists but this engine does not support
	// it (e.g. point streaming against an engine without a streaming ingest
	// path). Maps to 501.
	CodeUnimplemented = "unimplemented"
	// CodeInternal: unexpected server-side failure.
	CodeInternal = "internal"
)

// Error is the body of the uniform error envelope. It implements error so
// server code can build one and hand it straight to the response writer.
type Error struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is human-readable and unstable; do not parse it.
	Message string `json:"message"`
	// Details carries optional structured context (offending key, running
	// job, limits).
	Details map[string]any `json:"details,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Code + ": " + e.Message }

// ErrorEnvelope is the JSON shape of every non-2xx response:
//
//	{"error":{"code":"not_found","message":"...","details":{...}}}
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}

// Location is one answered delivery location — the unit payload of
// GET /v1/locations/{key} and of batch results.
type Location struct {
	Addr int64 `json:"addr"`
	// X, Y are meters in the dataset's local tangent plane.
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Source tells which level of the store answered: address, building, or
	// geocode (the deployed fallback chain).
	Source string `json:"source"`
}

// MaxBatchKeys bounds one POST /v1/locations:batch request.
const MaxBatchKeys = 1024

// BatchLocationsRequest is the POST /v1/locations:batch payload — the bulk
// hot path for consumers resolving many address keys per call.
type BatchLocationsRequest struct {
	Addrs []int64 `json:"addrs"`
}

// BatchResult is one per-key outcome of a batch lookup: exactly one of
// Location or Error is set. Unknown keys surface as per-item not_found
// errors while the batch as a whole stays 200 (partial-failure semantics).
type BatchResult struct {
	Addr     int64     `json:"addr"`
	Location *Location `json:"location,omitempty"`
	Error    *Error    `json:"error,omitempty"`
}

// BatchLocationsResponse answers a batch lookup in request order.
type BatchLocationsResponse struct {
	Results []BatchResult `json:"results"`
	Found   int           `json:"found"`
	Missing int           `json:"missing"`
}

// IngestRequest is the POST /v1/ingest payload: one window of trips with any
// new address metadata. Truth is keyed by stringified address id (JSON
// object keys must be strings), matching the dataset file format.
type IngestRequest struct {
	Trips     []model.Trip          `json:"trips"`
	Addresses []model.AddressInfo   `json:"addresses"`
	Truth     map[string][2]float64 `json:"truth,omitempty"`
}

// StreamPoint is one NDJSON line of POST /v1/trajectories:stream: a single
// GPS fix of one courier's trajectory, or (End true) the explicit end of
// that courier's open trip. X, Y are meters in the dataset's local tangent
// plane; T is seconds. Lines are applied in order; a trip also closes
// implicitly when the gap between a courier's consecutive fixes exceeds the
// engine's trip-gap bound.
type StreamPoint struct {
	Courier int64   `json:"courier"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	T       float64 `json:"t"`
	End     bool    `json:"end,omitempty"`
}

// StreamIngestResponse summarizes one accepted stream session: how many
// point lines and end markers were applied. It is only sent after every
// line succeeded — a mid-stream failure answers the error envelope instead,
// with the number of already-applied lines in the details.
type StreamIngestResponse struct {
	Points int `json:"points"`
	Ends   int `json:"ends"`
}

// Job states of a background re-inference.
const (
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStatus describes one background re-inference job (POST/GET /v1/reinfer).
type JobStatus struct {
	ID    int    `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Inferred is the number of addresses the finished job produced.
	Inferred int `json:"inferred,omitempty"`
}

// EngineStatus is the GET /v1/healthz payload (bare /healthz serves the same
// body as a probe alias): a summary of the engine's serving and ingest state.
// Machine consumers — the benchmark harness, smoke scripts, cluster peers — parse
// this typed form rather than grepping raw JSON.
type EngineStatus struct {
	Dataset string `json:"dataset,omitempty"`
	// Ready is true once a serving state (frozen store + model) is published —
	// after the first completed re-inference or a snapshot restore.
	Ready bool `json:"ready"`
	// Failed is true while the latest re-inference ended in error (sharded:
	// any shard's). A failed instance keeps serving its last good state, but
	// /healthz answers 503 so load balancers stop routing to it.
	Failed bool `json:"failed,omitempty"`
	// LastError is the failing re-inference's message while Failed.
	LastError string `json:"last_error,omitempty"`
	// Addresses counts addresses registered through ingest.
	Addresses int `json:"addresses"`
	// Inferred counts address-level entries in the served store.
	Inferred      int `json:"inferred"`
	PoolLocations int `json:"pool_locations"`
	// PendingTrips counts trips ingested after the serving state was built.
	PendingTrips int `json:"pending_trips"`
	// PendingAgeSeconds is how long the oldest trip of the current pending
	// backlog has been waiting for a re-inference (0 while the backlog is
	// empty). Auto-reinfer triggers and remote shard owners read it here.
	PendingAgeSeconds float64 `json:"pending_age_seconds,omitempty"`
	// Trips counts every trip ingested since the engine started (pending or
	// already folded into the served state). Remote shard backends use it to
	// skip re-inference on empty shards.
	Trips          int  `json:"trips,omitempty"`
	Reinfers       int  `json:"reinfers"`
	ReinferRunning bool `json:"reinfer_running"`
	// OpenStreams counts couriers with an open trajectory stream (points
	// accepted, trip not yet closed by an end marker or the gap rule).
	OpenStreams int `json:"open_streams,omitempty"`
	// Shards lists per-shard summaries when the serving engine is sharded;
	// empty for a single global engine. The top-level counters are then sums
	// over the shards, and Ready is true as soon as any shard serves — one
	// shard's failed retrain degrades its own region only.
	Shards []ShardStatus `json:"shards,omitempty"`
}

// ShardStatus is one shard's EngineStatus inside a sharded health payload.
type ShardStatus struct {
	Shard int `json:"shard"`
	// Peer is the base URL of the process serving the shard when it lives
	// behind a remote backend or cluster frontend; empty for in-process shards.
	Peer string `json:"peer,omitempty"`
	EngineStatus
}

// TraceSummary is one row of GET /v1/debug/traces: enough to decide which
// trace to fetch in full.
type TraceSummary struct {
	TraceID string    `json:"trace_id"`
	Root    string    `json:"root"`
	Start   time.Time `json:"start"`
	// DurationMS is the root span's wall time in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// Spans counts recorded spans; Dropped counts spans past the per-trace cap.
	Spans   int  `json:"spans"`
	Dropped int  `json:"dropped,omitempty"`
	Error   bool `json:"error,omitempty"`
}

// TraceListResponse answers GET /v1/debug/traces, newest first.
type TraceListResponse struct {
	Traces []TraceSummary `json:"traces"`
	Count  int            `json:"count"`
}

// TraceSpan is one node of the span tree in GET /v1/debug/traces/{id}.
type TraceSpan struct {
	SpanID     string         `json:"span_id"`
	ParentID   string         `json:"parent_id,omitempty"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Error      string         `json:"error,omitempty"`
	Children   []*TraceSpan   `json:"children,omitempty"`
}

// TraceResponse answers GET /v1/debug/traces/{id}: the full span tree of one
// completed trace. Spans holds the roots (normally one — the HTTP or job
// root; orphans whose parent was dropped surface as extra roots).
type TraceResponse struct {
	TraceID      string       `json:"trace_id"`
	DurationMS   float64      `json:"duration_ms"`
	Error        bool         `json:"error,omitempty"`
	DroppedSpans int          `json:"dropped_spans,omitempty"`
	Spans        []*TraceSpan `json:"spans"`
}

// SwapDistanceBucket is one bucket of a swap report's distance-moved
// histogram: the count of moved addresses whose displacement is at most
// LEMeters (the last bucket's bound is +Inf, rendered as 0 with Inf true).
type SwapDistanceBucket struct {
	LEMeters float64 `json:"le_meters,omitempty"`
	Inf      bool    `json:"inf,omitempty"`
	Count    int64   `json:"count"`
}

// SwapReport is one hot-swap churn report in GET /v1/debug/swaps: the diff
// of the outgoing serving store against the incoming one, computed at
// publish time. Seq numbers swaps per shard, starting at 1.
type SwapReport struct {
	Seq   int64     `json:"seq"`
	Shard string    `json:"shard"`
	Time  time.Time `json:"time"`
	// Kind is "reinfer" for a retrain swap, "restore" for a snapshot load.
	Kind   string `json:"kind"`
	Before int    `json:"before"`
	After  int    `json:"after"`
	// Added/Dropped/Moved/Retained partition the address diff; ChurnRatio is
	// moved/(moved+retained).
	Added           int64                `json:"added"`
	Dropped         int64                `json:"dropped"`
	Moved           int64                `json:"moved"`
	Retained        int64                `json:"retained"`
	ChurnRatio      float64              `json:"churn_ratio"`
	MeanMovedMeters float64              `json:"mean_moved_meters,omitempty"`
	MaxMovedMeters  float64              `json:"max_moved_meters,omitempty"`
	MovedDistance   []SwapDistanceBucket `json:"moved_distance,omitempty"`
	// LowConfidence counts incoming address-level answers below the engine's
	// low-confidence threshold.
	LowConfidence int64 `json:"low_confidence"`
}

// SwapsResponse answers GET /v1/debug/swaps, newest first (across shards,
// interleaved by time in the sharded engine).
type SwapsResponse struct {
	Swaps []SwapReport `json:"swaps"`
	Count int          `json:"count"`
}
