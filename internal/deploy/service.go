package deploy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"dlinfma/internal/deploy/api"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/obs"
	"dlinfma/internal/obs/trace"
	"dlinfma/internal/traj"
)

// Engine is deploy's view of the serving engine (implemented by
// internal/engine): the lifecycle owner behind the ingest / reinfer /
// query / snapshot endpoints. deploy defines the interface rather than
// importing the engine so the dependency points engine -> deploy.
type Engine interface {
	// The two read paths: one key with the request's context, and a batch.
	ContextQuerier
	BatchQuerier
	// SwapReports backs GET /v1/debug/swaps.
	SwapReporter
	// Ingest appends a window of trips (plus any new addresses and ground
	// truth) to the accumulating dataset.
	Ingest(ctx context.Context, trips []model.Trip, addrs []model.AddressInfo, truth map[model.AddressID]geo.Point) error
	// StartReinfer launches a background retrain + re-infer job. It returns
	// ErrReinferRunning (with the running job's status) when one is active.
	StartReinfer() (api.JobStatus, error)
	// ReinferStatus reports the latest job; ok is false before the first.
	ReinferStatus() (api.JobStatus, bool)
	// Status summarizes engine state for health checks.
	Status() api.EngineStatus
	// WriteSnapshot streams the serving state (addresses, inferred
	// locations, trained model) to w.
	WriteSnapshot(w io.Writer) error
}

// ErrReinferRunning is returned by Engine.StartReinfer while a re-inference
// job is already in flight; the service maps it to 409 Conflict.
var ErrReinferRunning = errors.New("deploy: re-inference already running")

// ErrBackpressure is returned by ingest paths when the engine's reinfer
// backlog (pending trips) has hit its configured bound; the service maps it
// to 429 so well-behaved producers back off until the next re-inference
// drains the queue.
var ErrBackpressure = errors.New("deploy: ingest backlog full, retry after reinfer")

// ContextQuerier is the request-scoped single-key read path. A query that
// crosses a process boundary (the cluster frontend proxying to ring owners)
// carries the request's deadline, trace context, and correlation id on the
// outbound hop; an in-process lookup has nothing to propagate.
type ContextQuerier interface {
	// QueryCtx answers a delivery-location request from the currently
	// served store snapshot, bounded and annotated by ctx; SourceNone
	// before the first re-inference or restore.
	QueryCtx(ctx context.Context, addr model.AddressID) (geo.Point, Source)
}

// StreamIngestor is the optional point-streaming ingest surface. Engines
// that implement it (internal/engine does) accept trajectory
// fixes one at a time per courier and assemble trips server-side: a trip
// closes on an explicit CloseStream or when the courier's inter-fix gap
// exceeds the engine's trip-gap bound. POST /v1/trajectories:stream feeds
// this interface; engines without it answer that route 501.
type StreamIngestor interface {
	// IngestPoint appends one GPS fix to courier's open trajectory stream,
	// opening a stream as needed. It returns ErrBackpressure when the
	// pending-trip bound is hit; a nil return means the point is accepted
	// and — when a write-ahead log is attached — durable per its fsync
	// policy.
	IngestPoint(ctx context.Context, courier model.CourierID, pt traj.GPSPoint) error
	// CloseStream ends courier's open trip, delivering it to the candidate
	// pool. Closing a courier without an open stream is a no-op.
	CloseStream(ctx context.Context, courier model.CourierID) error
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeJSONBytes answers 200 with an already encoded JSON body.
func writeJSONBytes(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// writeError writes the uniform error envelope
// {"error":{"code","message","details"}} every handler uses.
func writeError(w http.ResponseWriter, status int, code, msg string, details map[string]any) {
	writeJSON(w, status, api.ErrorEnvelope{Error: &api.Error{Code: code, Message: msg, Details: details}})
}

// maxIngestBytes bounds one ingest request body (64 MiB) so a runaway
// client cannot exhaust memory.
const maxIngestBytes = 64 << 20

// maxBatchBytes bounds one batch-lookup body (1 MiB covers MaxBatchKeys).
const maxBatchBytes = 1 << 20

// Options configures the service wrapper around an engine.
type Options struct {
	// Logger receives per-request access lines (at debug level) and handler
	// warnings. nil drops everything.
	Logger *obs.Logger
	// Tracer starts one root span per request (continuing an incoming W3C
	// traceparent) and backs GET /v1/debug/traces. nil disables tracing;
	// the debug endpoints then answer empty.
	Tracer *trace.Tracer
}

// NewService returns the versioned HTTP API of the deployed system
// (Section VI, Figure 14, grown to the full online lifecycle):
//
//	POST /v1/locations:batch   resolve many address keys per call (bulk hot path)
//	GET  /v1/locations/{key}   query one address via the address->building->geocode chain
//	POST /v1/ingest            append a window of trips (api.IngestRequest)
//	POST /v1/trajectories:stream  stream courier fixes as NDJSON api.StreamPoint lines
//	POST /v1/reinfer           start a background retrain+re-infer job (202)
//	GET  /v1/reinfer           poll the latest job's status
//	GET  /v1/snapshot          stream the serving state for on-disk persistence
//	GET  /v1/metrics           Prometheus text exposition of the obs registry
//	GET  /v1/healthz           EngineStatus; 503 before readiness or while a shard is failed
//	GET  /healthz              thin alias of /v1/healthz for load-balancer and kubelet probes
//
// Every handler emits the api.ErrorEnvelope on failure, and every route is
// wrapped in the request-logging + metrics middleware (status, latency,
// in-flight).
func NewService(e Engine, opts Options) http.Handler {
	s := &service{e: e, log: opts.Logger, tracer: opts.Tracer}
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.Handle(pattern, Instrument(route, s.log, s.tracer, h))
	}

	handle("/v1/locations/{key}", "/v1/locations/{key}", methodsOnly(s.handleLocation, http.MethodGet))
	handle("/v1/locations:batch", "/v1/locations:batch", methodsOnly(s.handleBatch, http.MethodPost))
	handle("/v1/ingest", "/v1/ingest", methodsOnly(s.handleIngest, http.MethodPost))
	handle("/v1/trajectories:stream", "/v1/trajectories:stream", methodsOnly(s.handleStream, http.MethodPost))
	handle("/v1/reinfer", "/v1/reinfer", methodsOnly(s.handleReinfer, http.MethodPost, http.MethodGet))
	handle("/v1/snapshot", "/v1/snapshot", methodsOnly(s.handleSnapshot, http.MethodGet))
	handle("/v1/metrics", "/v1/metrics", methodsOnly(metricsExposition, http.MethodGet))
	handle("/v1/debug/traces", "/v1/debug/traces", methodsOnly(traceListHandler(s.tracer), http.MethodGet))
	handle("/v1/debug/traces/{id}", "/v1/debug/traces/{id}", methodsOnly(traceGetHandler(s.tracer), http.MethodGet))
	handle("/v1/debug/swaps", "/v1/debug/swaps", methodsOnly(swapListHandler(e), http.MethodGet))
	handle("/v1/healthz", "/v1/healthz", methodsOnly(s.handleHealthz, http.MethodGet))
	handle("/healthz", "/healthz", methodsOnly(s.handleHealthz, http.MethodGet))

	// Everything else answers the envelope, grouped under one metric label
	// so unmatched paths cannot blow up route cardinality.
	handle("/", routeOther, func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "no such route", map[string]any{"path": r.URL.Path})
	})
	return mux
}

type service struct {
	e      Engine
	log    *obs.Logger
	tracer *trace.Tracer
}

// methodsOnly gates a handler to the allowed methods, answering the uniform
// 405 envelope otherwise. Patterns are registered method-less so the
// envelope — not net/http's plain-text 405 — is what clients see.
func methodsOnly(h http.HandlerFunc, allowed ...string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		for _, m := range allowed {
			if r.Method == m {
				h(w, r)
				return
			}
		}
		writeError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"method "+r.Method+" not allowed", map[string]any{"allowed": allowed})
	}
}

// parseAddrKey resolves the address key from the v1 path wildcard.
func parseAddrKey(r *http.Request) (model.AddressID, *api.Error) {
	key := r.PathValue("key")
	id, err := model.ParseAddressID(key)
	if err != nil {
		return 0, &api.Error{
			Code:    api.CodeInvalidArgument,
			Message: "address key must be a decimal integer",
			Details: map[string]any{"key": key},
		}
	}
	return id, nil
}

// handleLocation answers GET /v1/locations/{key}. A miss maps to the right
// envelope: 503 engine_not_ready on a cold engine, 404 not_found once a store
// is deployed; the Status() call happens only on misses, keeping the hot path
// to a single store lookup. A shard that could not answer (SourceUnavailable)
// is a 502, as it is for a batch. The engine gets the request context so a
// remote hop inherits the deadline and trace. A hit is written by the batch
// route's Location encoder, so both read routes have one.
func (s *service) handleLocation(w http.ResponseWriter, r *http.Request) {
	addr, aerr := parseAddrKey(r)
	if aerr != nil {
		writeJSON(w, http.StatusBadRequest, api.ErrorEnvelope{Error: aerr})
		return
	}
	loc, src := s.e.QueryCtx(r.Context(), addr)
	if src == SourceUnavailable {
		writeError(w, http.StatusBadGateway, api.CodeInternal,
			"the address's shard did not answer", map[string]any{"addr": int64(addr)})
		return
	}
	if src == SourceNone {
		if !s.e.Status().Ready {
			writeError(w, http.StatusServiceUnavailable, api.CodeEngineNotReady,
				"no serving state deployed yet", nil)
			return
		}
		writeError(w, http.StatusNotFound, api.CodeNotFound,
			"unknown address", map[string]any{"addr": int64(addr)})
		return
	}
	body, err := appendLocation(make([]byte, 0, 128), int64(addr), loc, src)
	if err != nil {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, err.Error(), nil)
		return
	}
	writeJSONBytes(w, append(body, '\n'))
}

func (s *service) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req api.IngestRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxIngestBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidArgument,
			fmt.Sprintf("decode ingest request: %v", err), nil)
		return
	}
	truth := make(map[model.AddressID]geo.Point, len(req.Truth))
	for k, v := range req.Truth {
		id, err := model.ParseAddressID(k)
		if err != nil {
			writeError(w, http.StatusBadRequest, api.CodeInvalidArgument,
				"truth keys must be decimal address ids", map[string]any{"key": k})
			return
		}
		truth[id] = geo.Point{X: v[0], Y: v[1]}
	}
	if err := s.e.Ingest(r.Context(), req.Trips, req.Addresses, truth); err != nil {
		if errors.Is(err, ErrBackpressure) {
			writeError(w, http.StatusTooManyRequests, api.CodeBackpressure, err.Error(), nil)
			return
		}
		s.log.WithTrace(r.Context()).Warn("ingest failed", "err", err, "request_id", RequestID(r.Context()))
		writeError(w, http.StatusInternalServerError, api.CodeInternal, err.Error(), nil)
		return
	}
	writeJSON(w, http.StatusOK, s.e.Status())
}

func (s *service) handleReinfer(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		job, err := s.e.StartReinfer()
		if errors.Is(err, ErrReinferRunning) {
			writeError(w, http.StatusConflict, api.CodeReinferInFlight,
				"a re-inference job is already running",
				map[string]any{"job_id": job.ID, "job": job})
			return
		}
		if err != nil {
			s.log.WithTrace(r.Context()).Warn("reinfer start failed", "err", err, "request_id", RequestID(r.Context()))
			writeError(w, http.StatusInternalServerError, api.CodeInternal, err.Error(), nil)
			return
		}
		writeJSON(w, http.StatusAccepted, job)
	case http.MethodGet:
		job, ok := s.e.ReinferStatus()
		if !ok {
			writeError(w, http.StatusNotFound, api.CodeNotFound, "no re-inference job yet", nil)
			return
		}
		writeJSON(w, http.StatusOK, job)
	}
}

func (s *service) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !s.e.Status().Ready {
		writeError(w, http.StatusServiceUnavailable, api.CodeEngineNotReady,
			"no serving state to snapshot yet", nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.e.WriteSnapshot(w); err != nil {
		// Headers are gone; the truncated body is the best signal left.
		s.log.WithTrace(r.Context()).Warn("snapshot stream failed", "err", err, "request_id", RequestID(r.Context()))
		return
	}
}

func (s *service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.e.Status()
	code := http.StatusOK
	// 503 before the first deployed store AND while any shard's latest
	// re-inference failed: a blind or degraded instance must drop out of the
	// load balancer even though it keeps answering what it still can.
	if !st.Ready || st.Failed {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

// NewServer wraps a handler in an http.Server with production timeouts: a
// short header read deadline against slowloris clients, bounded read/write
// deadlines sized for ingest uploads and snapshot downloads, and a keep-alive
// idle timeout.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// Serve runs srv until ctx is cancelled (SIGINT/SIGTERM in cmdServe wires a
// signal context), then shuts down gracefully with a 10 s drain deadline.
// It returns nil after a clean shutdown, otherwise the listener error.
func Serve(ctx context.Context, srv *http.Server) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
