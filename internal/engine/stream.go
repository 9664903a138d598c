package engine

import (
	"context"
	"errors"
	"sync/atomic"

	"dlinfma/internal/core"
	"dlinfma/internal/deploy"
	"dlinfma/internal/model"
	"dlinfma/internal/obs"
	"dlinfma/internal/traj"
)

// StreamConfig bounds the online point-by-point ingest path: how a courier's
// open trajectory is cut into trips and how streamed trips are grouped into
// pool windows. The zero value means "use the defaults" everywhere.
type StreamConfig struct {
	// TripGapSeconds closes a courier's open trip when the gap between two
	// consecutive fixes reaches it (0 = 600, ten minutes — longer than any
	// in-trip sampling gap, shorter than the break between delivery trips).
	TripGapSeconds float64
	// WindowSeconds is the streamed pool-window length. 0 inherits
	// Core.PoolWindowSeconds (itself defaulting to the paper's bi-weekly 14
	// days), so streamed and batch ingest seal on the same grid.
	WindowSeconds float64
	// MaxWindowStays additionally seals the open window once it holds this
	// many stay points, bounding the memory and clustering cost of one seal
	// regardless of wall time (0 = 4096).
	MaxWindowStays int
}

// withDefaults resolves the zero values against the engine's core config.
func (c StreamConfig) withDefaults(poolWindow float64) StreamConfig {
	if c.TripGapSeconds <= 0 {
		c.TripGapSeconds = 600
	}
	if c.WindowSeconds <= 0 {
		c.WindowSeconds = poolWindow
	}
	if c.WindowSeconds <= 0 {
		c.WindowSeconds = core.DefaultPoolWindowSeconds
	}
	if c.MaxWindowStays <= 0 {
		c.MaxWindowStays = 4096
	}
	return c
}

// courierStream is one courier's open trip: the raw fixes accepted so far,
// the incremental stay-point extractor consuming them, and the stay points
// it has closed. firstSeq remembers the WAL sequence of the trip's first
// point so re-inference never truncates a segment a still-open trip needs
// for crash recovery.
type courierStream struct {
	courier  model.CourierID
	ex       *traj.StreamExtractor
	pts      traj.Trajectory
	stays    []traj.StayPoint
	firstSeq uint64
	lastT    float64
}

// streamedTrip is one closed trip leaving the stream layer: the assembled
// model.Trip (no waybills — streamed fixes carry none; the raw trajectory
// rides along only until the trip is routed) and its extracted stay points.
type streamedTrip struct {
	trip  model.Trip
	stays []traj.StayPoint
}

// streamSet tracks every courier's open trajectory stream plus the open
// streamed pool window. The Engine keeps exactly one, above its shards: trip
// cutting (the gap rule) and pool-window boundaries are global decisions — a
// shard must see the same trips and the same window grid one shard over all
// the data would. Not safe for concurrent use; ingestMu serializes.
type streamSet struct {
	cfg     StreamConfig
	noise   traj.NoiseFilterConfig
	stay    traj.StayPointConfig
	streams map[model.CourierID]*courierStream
	// winEnd / winStays track the open streamed window: end of the current
	// window grid cell (0 before the first streamed trip) and stay points
	// delivered into it so far.
	winEnd   float64
	winStays int
	// nOpen mirrors len(streams) for Status, which must not queue behind a
	// long ingest holding the owner's lock (and runs on every batch lookup).
	nOpen atomic.Int64
}

// newStreamSet builds a stream set whose extraction parameters come from the
// same core config the batch path uses — the bit-identity contract between
// streamed and batch ingest starts here.
func newStreamSet(cfg StreamConfig, coreCfg core.Config) *streamSet {
	return &streamSet{
		cfg:     cfg.withDefaults(coreCfg.PoolWindowSeconds),
		noise:   coreCfg.Noise,
		stay:    coreCfg.Stay,
		streams: make(map[model.CourierID]*courierStream),
	}
}

// point feeds one fix into the courier's stream, opening one if needed. If
// the gap rule closes the previous trip, the closed trip is returned (the
// new fix has already been accepted into a fresh stream).
func (ss *streamSet) point(courier model.CourierID, pt traj.GPSPoint) *streamedTrip {
	var closed *streamedTrip
	cs := ss.streams[courier]
	if cs != nil && pt.T-cs.lastT >= ss.cfg.TripGapSeconds {
		closed = ss.finish(cs, streamTripsGap)
		cs = nil
	}
	if cs == nil {
		cs = &courierStream{courier: courier, ex: traj.NewStreamExtractor(ss.noise, ss.stay)}
		ss.streams[courier] = cs
		ss.noteOpen()
	}
	cs.pts = append(cs.pts, pt)
	cs.stays = append(cs.stays, cs.ex.Push(pt)...)
	cs.lastT = pt.T
	streamPoints.Inc()
	return closed
}

// end closes the courier's open trip explicitly; nil if none is open (an
// end marker with no stream is an idempotent no-op).
func (ss *streamSet) end(courier model.CourierID) *streamedTrip {
	cs := ss.streams[courier]
	if cs == nil {
		return nil
	}
	return ss.finish(cs, streamTripsEnd)
}

// noteSeq records the WAL sequence of the point just accepted on the
// courier's open stream; only the first point's sequence sticks. seq 0 means
// "no WAL attached" and is ignored.
func (ss *streamSet) noteSeq(courier model.CourierID, seq uint64) {
	if seq == 0 {
		return
	}
	if cs := ss.streams[courier]; cs != nil && cs.firstSeq == 0 {
		cs.firstSeq = seq
	}
}

// open reports how many courier streams are currently open. Unlike the rest
// of the set it is safe to call without the owner's lock.
func (ss *streamSet) open() int { return int(ss.nOpen.Load()) }

// noteOpen publishes the open-stream count after the set changed.
func (ss *streamSet) noteOpen() {
	ss.nOpen.Store(int64(len(ss.streams)))
	openStreamsGauge.Set(float64(len(ss.streams)))
}

// minOpenSeq returns the smallest WAL firstSeq across open streams, and
// whether any open stream has points not yet covered by a sequence (which
// forbids truncation entirely). ok is true when there are no such holes.
func (ss *streamSet) minOpenSeq() (min uint64, ok bool) {
	min, ok = 0, true
	for _, cs := range ss.streams {
		if cs.firstSeq == 0 {
			return 0, false
		}
		if min == 0 || cs.firstSeq < min {
			min = cs.firstSeq
		}
	}
	return min, ok
}

// finish removes the stream from the set and assembles its closed trip.
func (ss *streamSet) finish(cs *courierStream, reason *obs.Counter) *streamedTrip {
	delete(ss.streams, cs.courier)
	ss.noteOpen()
	accepted := cs.ex.Accepted() // Flush resets the trip's counter
	cs.stays = append(cs.stays, cs.ex.Flush()...)
	reason.Inc()
	core.RecordTripQuality(accepted, len(cs.pts)-accepted, len(cs.stays))
	return &streamedTrip{
		trip: model.Trip{
			Courier: cs.courier,
			StartT:  cs.pts[0].T,
			EndT:    cs.pts[len(cs.pts)-1].T,
			Traj:    cs.pts,
		},
		stays: cs.stays,
	}
}

// errRemoteStreaming rejects the local-only ingest surfaces in the remote
// topology: streamed trips enter shard pools through the window-less
// addStreamedTrip hook, which has no wire form. Stream into each shard
// process directly instead.
var errRemoteStreaming = errors.New("engine: streaming ingest requires in-process shards; stream to the shard processes directly")

// IngestPoint accepts one streamed GPS fix for a courier, durably logging it
// (when a WAL is attached) before it can close a trip or touch any shard's
// pool. It returns deploy.ErrBackpressure when the pending-trip backlog has
// reached Config.MaxPendingTrips — producers should back off until the next
// re-inference drains it. Implements deploy.StreamIngestor.
func (e *Engine) IngestPoint(ctx context.Context, courier model.CourierID, pt traj.GPSPoint) error {
	if e.remote {
		return errRemoteStreaming
	}
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	return e.ingestPointLocked(ctx, courier, pt, 0, true)
}

// CloseStream explicitly ends a courier's open trip (deploy.StreamIngestor).
// Closing a courier with no open stream is a no-op.
func (e *Engine) CloseStream(ctx context.Context, courier model.CourierID) error {
	if e.remote {
		return errRemoteStreaming
	}
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	return e.closeStreamLocked(ctx, courier, true)
}

// ingestPointLocked is the shared live/replay core of IngestPoint. Live
// points are rejected under backpressure and appended to the WAL before any
// state changes (a failed append leaves the engine untouched, so the
// unacknowledged point can simply be retried); replayed points pass their
// original sequence in seq and skip both.
func (e *Engine) ingestPointLocked(ctx context.Context, courier model.CourierID, pt traj.GPSPoint, seq uint64, live bool) error {
	if live {
		if e.overloaded() {
			backpressureRejects.Inc()
			return deploy.ErrBackpressure
		}
		if e.wal != nil {
			s, err := e.wal.Append(encodeWALPoint(courier, pt))
			if err != nil {
				return err
			}
			seq = s
		}
	}
	closed := e.ss.point(courier, pt)
	e.ss.noteSeq(courier, seq)
	if closed != nil {
		e.deliverStreamedTripLocked(ctx, closed)
	}
	return nil
}

// closeStreamLocked is the shared live/replay core of CloseStream. The end
// marker hits the WAL before the stream is torn down, so a failed append
// leaves the trip open for a clean retry.
func (e *Engine) closeStreamLocked(ctx context.Context, courier model.CourierID, live bool) error {
	if live {
		if _, ok := e.ss.streams[courier]; !ok {
			return nil
		}
		if e.wal != nil {
			if _, err := e.wal.Append(encodeWALEnd(courier)); err != nil {
				return err
			}
		}
	}
	if closed := e.ss.end(courier); closed != nil {
		e.deliverStreamedTripLocked(ctx, closed)
	}
	return nil
}

// deliverStreamedTripLocked hands one closed trip to its shard (by
// trajectory — streamed fixes carry no waybills), driving the streamed
// window grid: a trip starting past the grid boundary (mirroring
// core.ForEachWindow's time boundary) or the stay-point size bound seals every
// shard's pending streamed trips together, so shard pools see the same
// window cuts one shard over all the data would.
func (e *Engine) deliverStreamedTripLocked(ctx context.Context, st *streamedTrip) {
	ss := e.ss
	if ss.winEnd == 0 {
		ss.winEnd = st.trip.StartT + ss.cfg.WindowSeconds
	}
	if st.trip.StartT >= ss.winEnd {
		e.sealStreamWindowsLocked(ctx)
		for st.trip.StartT >= ss.winEnd {
			ss.winEnd += ss.cfg.WindowSeconds
		}
	}
	sh := 0
	if e.routed() {
		sh = e.router.TripShard(st.trip)
	}
	e.shards[sh].addStreamedTrip(st)
	ss.winStays += len(st.stays)
	e.mu.Lock()
	e.nTrips++
	e.mu.Unlock()
	if ss.winStays >= ss.cfg.MaxWindowStays {
		e.sealStreamWindowsLocked(ctx)
	}
}

// sealStreamWindowsLocked seals the streamed window on every in-process
// shard (no-op on shards with nothing pending) and resets the size counter.
// Remote shard processes seal their own streamed windows.
func (e *Engine) sealStreamWindowsLocked(ctx context.Context) {
	e.ss.winStays = 0
	for _, sh := range e.shards {
		if sh != nil {
			sh.sealStreamWindow(ctx)
		}
	}
}

// overloaded reports whether the summed pending-trip backlog across the
// in-process shards has reached MaxPendingTrips. Remote shard processes
// enforce their own bounds and answer 429 through the backend seam instead.
func (e *Engine) overloaded() bool {
	if e.cfg.MaxPendingTrips <= 0 {
		return false
	}
	total := 0
	for _, sh := range e.shards {
		if sh == nil {
			continue
		}
		total += sh.pendingCount()
		if total >= e.cfg.MaxPendingTrips {
			return true
		}
	}
	return false
}
