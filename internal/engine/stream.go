package engine

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"time"

	"dlinfma/internal/core"
	"dlinfma/internal/deploy"
	"dlinfma/internal/model"
	"dlinfma/internal/obs"
	"dlinfma/internal/obs/trace"
	"dlinfma/internal/traj"
)

// tripGapSeconds closes a courier's open trip when the gap between two
// consecutive fixes reaches it: ten minutes, longer than any in-trip sampling
// gap and shorter than the break between delivery trips.
const tripGapSeconds = 600

// maxWindowStays additionally seals the open streamed window once it holds
// this many stay points, bounding the memory and clustering cost of one seal
// regardless of wall time.
const maxWindowStays = 4096

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
	// window is the streamed pool-window length: Core.PoolWindowSeconds,
	// which core.NextWindow defaults as the batch path's grid does, so
	// streamed and batch ingest seal on the same grid.
	window float64
	// maxStays is maxWindowStays; tests lower it to seal on size.
	maxStays int
	noise    traj.NoiseFilterConfig
	stay     traj.StayPointConfig
	streams  map[model.CourierID]*courierStream
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
func newStreamSet(coreCfg core.Config) *streamSet {
	return &streamSet{
		window:   coreCfg.PoolWindowSeconds,
		maxStays: maxWindowStays,
		noise:    coreCfg.Noise,
		stay:     coreCfg.Stay,
		streams:  make(map[model.CourierID]*courierStream),
	}
}

// point feeds one fix into the courier's stream, opening one if needed. If
// the gap rule closes the previous trip, the closed trip is returned (the
// new fix has already been accepted into a fresh stream). seq is the fix's
// WAL sequence (0 = not logged); a stream remembers the one it opened on.
func (ss *streamSet) point(courier model.CourierID, pt traj.GPSPoint, seq uint64) *streamedTrip {
	var closed *streamedTrip
	cs := ss.streams[courier]
	if cs != nil && pt.T-cs.lastT >= tripGapSeconds {
		closed = ss.finish(cs, streamTripsGap)
		cs = nil
	}
	if cs == nil {
		cs = &courierStream{courier: courier, ex: traj.NewStreamExtractor(ss.noise, ss.stay), firstSeq: seq}
		ss.streams[courier] = cs
		ss.noteOpen()
	}
	cs.pts = append(cs.pts, pt)
	cs.stays = append(cs.stays, cs.ex.Push(pt)...)
	cs.lastT = pt.T
	return closed
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
// topology: a streamed trip enters a shard's evidence one trip at a time
// (evidence.queue), which has no wire form. Stream into each shard process
// directly instead.
var errRemoteStreaming = errors.New("engine: streaming ingest requires in-process shards; stream to the shard processes directly")

// IngestPoint accepts one streamed GPS fix for a courier, durably logging it
// (when a WAL is attached) before it can close a trip or touch any shard's
// pool. It returns deploy.ErrBackpressure when the pending-trip backlog has
// reached Config.MaxPendingTrips — producers should back off until the next
// re-inference drains it. It is a burst of one. Implements
// deploy.StreamIngestor.
func (e *Engine) IngestPoint(ctx context.Context, courier model.CourierID, pt traj.GPSPoint) error {
	op := [1]deploy.StreamOp{{Courier: courier, Pt: pt}}
	_, err := e.IngestBurst(ctx, op[:])
	return err
}

// CloseStream explicitly ends a courier's open trip (deploy.StreamIngestor),
// as a burst of one. Closing a courier with no open stream changes nothing
// but is logged like any other accepted op.
func (e *Engine) CloseStream(ctx context.Context, courier model.CourierID) error {
	op := [1]deploy.StreamOp{{Courier: courier, End: true}}
	_, err := e.IngestBurst(ctx, op[:])
	return err
}

// IngestBurst applies a run of streamed ops in order under one hold of
// ingestMu and one write to the log (deploy.StreamBurstIngestor). Every op
// it accepts is one WAL record, appended before any state changes — one
// AppendBatch, in op order, so op i takes sequence first+i, append order
// equals apply order, and a failed append leaves the engine untouched for a
// clean retry of the whole burst. An end marker for a courier with no open
// stream is logged too, and applied as a no-op. Backpressure is decided
// once, before anything is logged: with the pending-trip backlog at
// Config.MaxPendingTrips the burst is cut at its first fix (end markers only
// ever close trips, so they still pass) and answers deploy.ErrBackpressure
// there; a burst admitted below the bound runs to its end, so the backlog
// overshoots by at most the trips that one burst closes.
func (e *Engine) IngestBurst(ctx context.Context, ops []deploy.StreamOp) (applied int, err error) {
	if e.remote {
		return 0, errRemoteStreaming
	}
	// A lock that was free is a wait of zero, known without reading the
	// clock — which is most of what a burst of one costs.
	var waited time.Duration
	if !e.ingestMu.TryLock() {
		asked := time.Now()
		e.ingestMu.Lock()
		waited = time.Since(asked)
	}
	locked, n := time.Now(), len(ops)
	defer func() {
		e.ingestMu.Unlock()
		ingestLockWait.Record(waited)
		ingestLockHold.Record(time.Since(locked))
		streamBurstOps.Observe(float64(n))
	}()

	if e.overloaded() {
		ends := 0
		for ends < len(ops) && ops[ends].End {
			ends++
		}
		if ends < len(ops) {
			backpressureRejects.Inc()
			ops, err = ops[:ends], deploy.ErrBackpressure
		}
	}
	var seq uint64
	if e.wal != nil && len(ops) > 0 {
		first, werr := e.wal.AppendBatch(e.burst.encode(ops))
		if werr != nil {
			return 0, werr
		}
		seq = first
	}
	e.applyStreamOpsLocked(ctx, ops, seq)
	return len(ops), err
}

// applyStreamOpsLocked is the one apply loop of streamed ops, live and
// replayed: each fix enters its courier's stream, each end marker closes it
// (a no-op when none is open), and every trip either of them closes is
// delivered to its shard before the next op runs. seq is the WAL sequence of
// the first op (0 = not logged); the ops were logged under consecutive ones.
func (e *Engine) applyStreamOpsLocked(ctx context.Context, ops []deploy.StreamOp, seq uint64) {
	points := 0
	for i := range ops {
		op := &ops[i]
		var closed *streamedTrip
		if op.End {
			if cs := e.ss.streams[op.Courier]; cs != nil {
				closed = e.ss.finish(cs, streamTripsEnd)
			}
		} else {
			closed = e.ss.point(op.Courier, op.Pt, seq)
			points++
		}
		if seq != 0 {
			seq++
		}
		if closed != nil {
			e.deliverStreamedTripLocked(ctx, closed)
		}
	}
	streamPoints.Add(int64(points))
}

// burstEncoder holds what IngestBurst reuses from one burst to the next to
// turn ops into WAL payloads: the byte buffer the records are encoded into
// and the payload slices over it.
type burstEncoder struct {
	buf  []byte
	recs [][]byte
}

// encode returns one WAL payload per op, in op order. The payloads alias
// the encoder's buffer and are valid until the next call.
func (b *burstEncoder) encode(ops []deploy.StreamOp) [][]byte {
	// Grown once up front: a later growth would move the records already cut.
	buf := slices.Grow(b.buf[:0], len(ops)*walPointSize)
	recs := b.recs[:0]
	for i := range ops {
		start := len(buf)
		buf = appendWALOp(buf, &ops[i])
		recs = append(recs, buf[start:len(buf):len(buf)])
	}
	b.buf, b.recs = buf, recs
	return recs
}

// deliverStreamedTripLocked hands one closed trip to its shard (by
// trajectory — streamed fixes carry no waybills), driving the streamed
// window grid: a trip starting past the grid boundary (core.NextWindow, the
// rule core.ForEachWindow cuts by) or the stay-point size bound seals every
// shard's pending streamed trips together, so shard pools see the same
// window cuts one shard over all the data would.
func (e *Engine) deliverStreamedTripLocked(ctx context.Context, st *streamedTrip) {
	ss := e.ss
	var cut bool
	if ss.winEnd, cut = core.NextWindow(ss.winEnd, st.trip.StartT, ss.window); cut {
		e.sealWindowLocked(ctx)
	}
	sh := 0
	if e.routed() {
		sh = e.router.TripShard(st.trip)
	}
	e.shards[sh].ev.queue(st.trip, st.stays)
	ss.winStays += len(st.stays)
	e.mu.Lock()
	e.nTrips++
	if e.routed() {
		e.countShardTripsLocked(sh, 1)
	}
	e.mu.Unlock()
	if ss.winStays >= ss.maxStays {
		e.sealWindowLocked(ctx)
	}
}

// sealWindowLocked is the one pool-window cut: it hands the queued trips of
// every in-process shard (no-op on shards with nothing queued) to that
// shard's sealer as one window and resets the streamed window's size
// counter. A batch window (after its fan-out), the streamed grid and size
// bound, Reinfer and WAL replay all cut here. The shards cluster their
// windows side by side and beside the ingest that follows; a shard whose
// previous window is still being sealed makes the cut wait for it, so each
// shard has at most one window in flight and seals them in cut order.
// settle waits for the seals. Remote shard processes cut their own
// windows. Callers hold ingestMu.
func (e *Engine) sealWindowLocked(ctx context.Context) {
	ctx, tsp := trace.Start(ctx, "engine.seal_window")
	defer tsp.End()
	e.ss.winStays = 0
	for _, sh := range e.shards {
		if sh != nil {
			sh.ev.cut(ctx)
		}
	}
}

// settle returns once every in-process shard has sealed every window cut
// so far.
func (e *Engine) settle() {
	for _, sh := range e.shards {
		if sh != nil {
			sh.ev.settle()
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
		total += sh.ev.counts.Load().pending
		if total >= e.cfg.MaxPendingTrips {
			return true
		}
	}
	return false
}
