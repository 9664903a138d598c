package loadgen

import (
	"sync/atomic"
	"time"

	"dlinfma/internal/obs"
)

// Endpoint enumerates the fixed set of request kinds the swarm drives. A
// fixed enum (not a map keyed by route) keeps the hot recording path free of
// locks and allocation.
type Endpoint int

const (
	// EPLookup is GET /v1/locations/{key}.
	EPLookup Endpoint = iota
	// EPBatch is POST /v1/locations:batch.
	EPBatch
	// EPStream is POST /v1/trajectories:stream (one NDJSON burst per op).
	EPStream
	// EPReinfer is POST /v1/reinfer (a background retrain kick).
	EPReinfer
	numEndpoints
)

var endpointNames = [numEndpoints]string{"lookup", "batch", "stream", "reinfer"}

// String returns the short wire name used in reports and the dashboard.
func (e Endpoint) String() string {
	if e < 0 || e >= numEndpoints {
		return "unknown"
	}
	return endpointNames[e]
}

// Endpoints lists every endpoint in display order.
func Endpoints() []Endpoint {
	return []Endpoint{EPLookup, EPBatch, EPStream, EPReinfer}
}

// Stats aggregates outcomes per endpoint: a latency histogram plus success
// and error counters. All methods are safe for concurrent use.
type Stats struct {
	eps [numEndpoints]epStats
}

type epStats struct {
	hist obs.HDRHistogram
	ok   atomic.Int64
	errs atomic.Int64
	// bp counts backpressure rejections (HTTP 429): the server shedding load
	// by design, not a failure — kept out of the error rate so a saturated
	// ingest path reads "saturated" rather than "broken".
	bp atomic.Int64
	// lastErr keeps one representative error message for diagnostics.
	lastErr atomic.Pointer[string]
}

// NewStats returns an empty collector.
func NewStats() *Stats { return &Stats{} }

// Record logs one completed operation. Latency is recorded for successes and
// failures alike — an error that takes 30s to surface is part of the latency
// story, not outside it.
func (s *Stats) Record(ep Endpoint, d time.Duration, err error) {
	e := &s.eps[ep]
	e.hist.Record(d)
	if err == nil {
		e.ok.Add(1)
		return
	}
	e.errs.Add(1)
	msg := err.Error()
	e.lastErr.Store(&msg)
}

// RecordBackpressure logs one operation the server rejected with 429. The
// latency still counts (the rejection round-trip is real load), but the op is
// neither a success nor an error.
func (s *Stats) RecordBackpressure(ep Endpoint, d time.Duration) {
	e := &s.eps[ep]
	e.hist.Record(d)
	e.bp.Add(1)
}

// EndpointSnapshot is the frozen view of one endpoint's counters.
type EndpointSnapshot struct {
	Endpoint     Endpoint
	Hist         *obs.HDRSnapshot
	OK           int64
	Errors       int64
	Backpressure int64
	LastErr      string
}

// StatsSnapshot freezes the whole collector at one instant.
type StatsSnapshot struct {
	Taken     time.Time
	Endpoints [numEndpoints]EndpointSnapshot
}

// Snapshot copies every endpoint's state.
func (s *Stats) Snapshot() *StatsSnapshot {
	out := &StatsSnapshot{Taken: time.Now()}
	for i := range s.eps {
		e := &s.eps[i]
		es := EndpointSnapshot{
			Endpoint:     Endpoint(i),
			Hist:         e.hist.Snapshot(),
			OK:           e.ok.Load(),
			Errors:       e.errs.Load(),
			Backpressure: e.bp.Load(),
		}
		if p := e.lastErr.Load(); p != nil {
			es.LastErr = *p
		}
		out.Endpoints[i] = es
	}
	return out
}

// Totals sums requests, errors, and backpressure rejections across
// endpoints. Requests includes all three outcomes — a 429 round-trip is a
// completed request.
func (s *StatsSnapshot) Totals() (requests, errors, backpressure int64) {
	for _, e := range s.Endpoints {
		requests += e.OK + e.Errors + e.Backpressure
		errors += e.Errors
		backpressure += e.Backpressure
	}
	return requests, errors, backpressure
}

// Merged returns one histogram snapshot covering every endpoint, for
// whole-run quantiles.
func (s *StatsSnapshot) Merged() *obs.HDRSnapshot {
	m := obs.NewHDRSnapshot()
	for _, e := range s.Endpoints {
		m.Merge(e.Hist)
	}
	return m
}

// Sub returns the per-endpoint delta between two snapshots (prev may be
// nil), for interval sampling into a timeseries.
func (s *StatsSnapshot) Sub(prev *StatsSnapshot) *StatsSnapshot {
	if prev == nil {
		return s
	}
	out := &StatsSnapshot{Taken: s.Taken}
	for i := range s.Endpoints {
		cur, old := s.Endpoints[i], prev.Endpoints[i]
		out.Endpoints[i] = EndpointSnapshot{
			Endpoint:     cur.Endpoint,
			Hist:         cur.Hist.Sub(old.Hist),
			OK:           cur.OK - old.OK,
			Errors:       cur.Errors - old.Errors,
			Backpressure: cur.Backpressure - old.Backpressure,
			LastErr:      cur.LastErr,
		}
	}
	return out
}
