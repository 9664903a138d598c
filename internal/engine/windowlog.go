package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"time"

	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/obs/trace"
	"dlinfma/internal/traj"
	"dlinfma/internal/wal"
)

// windowLogDir is the window log's directory under the fix log's.
const windowLogDir = "windows"

// A window record (tag 0x07) is the window log's one kind: the streamed
// trips delivered since the previous record, in delivery order, the cuts
// among them, and the stream layer as it stood when the record was made —
// the open streams' fixes, the window grid, and the fix-log position just
// past the last op it covers. It is made at the end of the operation that
// cut (a burst, a Reinfer, the cut before a batch window, a replay), not at
// the cut itself: the grid cuts in the middle of an op, between the trip it
// closed and that trip's delivery. Little-endian:
//
//	0x07, resume seq u64, segment u64, offset u64, window end f64,
//	u32 trips × (courier u32, start f64, end f64, routing fix x y t f64,
//	             u32 stays × (x y arrive leave f64, points u32)),
//	u32 cuts × u32 (a cut before trip i; i = trips cuts after the last),
//	u32 streams × (courier u32, u32 fixes × (x y t f64))
//
// A streamed trip carries no waybills, so the record has no place for them.
const walTagWindow byte = 0x07

// The smallest encoding of each repeated part, which bounds the counts a
// record can claim.
const (
	compactTripSize = 4 + 2*8 + 3*8 + 4 // without stays
	compactStaySize = 4*8 + 4
	compactFixSize  = 3 * 8
)

// windowRecord is a decoded window record. Each trip's Traj holds its
// routing fix alone — the trajectory's midpoint, what shard.Router.TripShard
// routes by — so a restart under another shard count routes as a live
// engine at that count does.
type windowRecord struct {
	resume  wal.Position
	winEnd  float64
	trips   []compactTrip
	cuts    []int
	streams []openStream
}

type compactTrip struct {
	trip  model.Trip
	stays []traj.StayPoint
}

type openStream struct {
	courier model.CourierID
	pts     traj.Trajectory
}

// windowWriter builds the next window record under ingestMu: trips are
// encoded as they are delivered, cuts noted as they are made, and the
// record is closed and appended at the end of the operation.
type windowWriter struct {
	// off stops compaction for the rest of the process: a batch window's
	// record is in the fix log (it holds the only durable copy of its
	// addresses and truth, so the resume position must never pass it), or
	// the window log failed. The fix log then keeps growing, and a restart
	// replays it from the last resume position.
	off bool
	// replaying defers the record to the end of a fix-log replay: mid-replay,
	// the fix log's end is not the position past the record being applied.
	replaying bool
	trips     []byte
	n         int
	cuts      []uint32
	rec       []byte
}

// trip encodes one delivered trip: courier, times, routing fix and stay
// points.
func (ww *windowWriter) trip(tr *model.Trip, stays []traj.StayPoint) {
	route := tr.Traj[len(tr.Traj)/2]
	b := binary.LittleEndian.AppendUint32(ww.trips, uint32(tr.Courier))
	b = appendFloats(b, tr.StartT, tr.EndT, route.P.X, route.P.Y, route.T)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(stays)))
	for _, sp := range stays {
		b = appendFloats(b, sp.Loc.X, sp.Loc.Y, sp.ArriveT, sp.LeaveT)
		b = binary.LittleEndian.AppendUint32(b, uint32(sp.NPoints))
	}
	ww.trips = b
	ww.n++
}

// cut notes a window cut after the trips encoded so far.
func (ww *windowWriter) cut() { ww.cuts = append(ww.cuts, uint32(ww.n)) }

// record closes the pending record at resume, with the grid's window end
// and the open streams, and returns its payload; it is valid until the next
// call. The writer starts the next record empty.
func (ww *windowWriter) record(resume wal.Position, winEnd float64, streams []openStream) []byte {
	b := append(ww.rec[:0], walTagWindow)
	b = binary.LittleEndian.AppendUint64(b, resume.Seq)
	b = binary.LittleEndian.AppendUint64(b, resume.Segment)
	b = binary.LittleEndian.AppendUint64(b, uint64(resume.Offset))
	b = appendFloats(b, winEnd)
	b = binary.LittleEndian.AppendUint32(b, uint32(ww.n))
	b = append(b, ww.trips...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ww.cuts)))
	for _, c := range ww.cuts {
		b = binary.LittleEndian.AppendUint32(b, c)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(streams)))
	for _, s := range streams {
		b = binary.LittleEndian.AppendUint32(b, uint32(s.courier))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.pts)))
		for _, p := range s.pts {
			b = appendFloats(b, p.P.X, p.P.Y, p.T)
		}
	}
	ww.rec = b
	ww.reset()
	return b
}

// reset drops the pending record.
func (ww *windowWriter) reset() {
	ww.trips, ww.n, ww.cuts = ww.trips[:0], 0, ww.cuts[:0]
}

func appendFloats(b []byte, fs ...float64) []byte {
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// windowReader reads a window record's fields in order; the first short
// read sets err, and every read after it returns zero.
type windowReader struct {
	b   []byte
	err error
}

func (r *windowReader) take(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.err = errors.New("window record cut short")
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *windowReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *windowReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *windowReader) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads a u32 count of items of at least size bytes each, refusing
// one the rest of the record cannot hold before anything is allocated.
func (r *windowReader) count(size int) int {
	n := int(r.u32())
	if r.err == nil && n > len(r.b)/size {
		r.err = fmt.Errorf("window record claims %d items of %d bytes in %d", n, size, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return n
}

// decodeWindowRecord reads a 0x07 payload. Every count must fit in the
// bytes that follow it, the cuts must ascend within the trips, and nothing
// may trail the streams.
func decodeWindowRecord(payload []byte) (*windowRecord, error) {
	r := &windowReader{b: payload}
	if len(r.take(1)) == 0 || payload[0] != walTagWindow {
		return nil, errors.New("not a window record")
	}
	rec := &windowRecord{resume: wal.Position{Seq: r.u64(), Segment: r.u64(), Offset: int64(r.u64())}, winEnd: r.f64()}
	rec.trips = make([]compactTrip, r.count(compactTripSize))
	for i := range rec.trips {
		ct := &rec.trips[i]
		ct.trip.Courier = model.CourierID(r.u32())
		ct.trip.StartT, ct.trip.EndT = r.f64(), r.f64()
		route := traj.GPSPoint{P: geo.Point{X: r.f64(), Y: r.f64()}, T: r.f64()}
		ct.trip.Traj = traj.Trajectory{route}
		if n := r.count(compactStaySize); n > 0 {
			ct.stays = make([]traj.StayPoint, n)
			for j := range ct.stays {
				sp := &ct.stays[j]
				sp.Loc.X, sp.Loc.Y, sp.ArriveT, sp.LeaveT = r.f64(), r.f64(), r.f64(), r.f64()
				sp.NPoints = int(r.u32())
			}
		}
	}
	if n := r.count(4); n > 0 {
		rec.cuts = make([]int, n)
		for i := range rec.cuts {
			rec.cuts[i] = int(r.u32())
			if r.err == nil && (rec.cuts[i] > len(rec.trips) || i > 0 && rec.cuts[i] < rec.cuts[i-1]) {
				r.err = fmt.Errorf("window record cut %d at trip %d of %d", i, rec.cuts[i], len(rec.trips))
			}
		}
	}
	if n := r.count(8); n > 0 {
		rec.streams = make([]openStream, n)
		for i := range rec.streams {
			s := &rec.streams[i]
			s.courier = model.CourierID(r.u32())
			s.pts = make(traj.Trajectory, r.count(compactFixSize))
			for j := range s.pts {
				s.pts[j] = traj.GPSPoint{P: geo.Point{X: r.f64(), Y: r.f64()}, T: r.f64()}
			}
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%d bytes trail the window record", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return rec, nil
}

// compacting reports whether window cuts are being recorded. Callers hold
// ingestMu.
func (e *Engine) compacting() bool { return e.wins != nil && !e.win.off }

// stopCompactingLocked ends compaction for the rest of the process (see
// windowWriter.off). Callers hold ingestMu.
func (e *Engine) stopCompactingLocked() {
	e.win.off = true
	e.win.reset()
}

// writeWindowLocked closes the pending window record, if a cut made one,
// at the end of the operation that cut: the record resumes the fix log at
// its end, and once the record is durable the fix log deletes the
// segments wholly before that point. A failing window log stops
// compaction; the fix log still holds everything. Callers hold ingestMu.
func (e *Engine) writeWindowLocked(ctx context.Context) {
	if !e.compacting() || e.win.replaying || len(e.win.cuts) == 0 {
		return
	}
	_, tsp := trace.Start(ctx, "engine.window_record")
	defer tsp.End()
	e.compactStep("cut")
	err := e.appendWindowLocked()
	if err != nil {
		tsp.RecordError(err)
		e.cfg.Logger.Error("window log failed; compaction stops until restart", "err", err)
		e.stopCompactingLocked()
	}
}

func (e *Engine) appendWindowLocked() error {
	resume, err := e.wal.End()
	if err != nil {
		return err
	}
	streams := make([]openStream, 0, len(e.ss.streams))
	for _, cs := range e.ss.streams {
		streams = append(streams, openStream{cs.courier, cs.pts})
	}
	// Map order is random; the record is not, so equal states log equal
	// bytes.
	slices.SortFunc(streams, func(a, b openStream) int { return int(a.courier) - int(b.courier) })
	if _, err := e.wins.Append(e.win.record(resume, e.ss.winEnd, streams)); err != nil {
		return err
	}
	windowRecords.Inc()
	e.compactStep("record")
	err = e.wal.TruncateThrough(resume, func() error {
		err := e.wins.Sync()
		e.compactStep("durable")
		return err
	})
	e.compactStep("truncate")
	return err
}

// compactStep calls the test hook that crashes a twin between the steps of
// a window record; nil outside tests.
func (e *Engine) compactStep(step string) {
	if e.onCompactStep != nil {
		e.onCompactStep(step)
	}
}

// OpenWAL opens the engine's logs in dir — the fix log in dir itself, the
// window log in its "windows" subdirectory — rebuilds the ingest state from
// them on top of whatever the engine holds (typically a restored
// snapshot), and attaches both, so every window cut from now on writes a
// window record and the fix log is truncated behind it. The window log's
// records are applied first: their trips are delivered through the live
// queue, route and count path, their cuts made where the live engine made
// them, and the last record's open streams and window grid restored. The
// fix log is then opened at the last record's resume position and replayed
// from there, and none of it before that position is read. It returns the
// number of records applied from both logs. Close closes the logs.
func (e *Engine) OpenWAL(ctx context.Context, dir string, opts wal.Options) (int, error) {
	if e.remote {
		return 0, errRemoteStreaming
	}
	ctx, tsp := trace.Start(ctx, "engine.wal_replay")
	defer tsp.End()
	start := time.Now()
	wopts := opts
	wopts.Log = "window"
	wins, err := wal.Open(filepath.Join(dir, windowLogDir), wopts)
	if err != nil {
		return 0, err
	}
	var last *windowRecord
	n := 0
	err = wins.Replay(func(seq uint64, payload []byte) error {
		ent, err := decodeWALRecord(payload)
		if err == nil && ent.window == nil {
			err = fmt.Errorf("%s record in the window log", ent.kind())
		}
		if err == nil && last != nil && ent.window.resume.Seq < last.resume.Seq {
			err = fmt.Errorf("resumes at fix-log sequence %d, before the previous record's %d", ent.window.resume.Seq, last.resume.Seq)
		}
		if err != nil {
			return fmt.Errorf("engine: window log record %d: %w", seq, err)
		}
		last = ent.window
		e.ingestMu.Lock()
		e.replayWindowLocked(ctx, last)
		e.ingestMu.Unlock()
		n++
		return nil
	})
	var resume wal.Position
	if err == nil && last != nil {
		e.ingestMu.Lock()
		for _, s := range last.streams {
			for _, p := range s.pts {
				e.ss.point(s.courier, p)
			}
		}
		e.ingestMu.Unlock()
		resume = last.resume
	}
	var fix *wal.WAL
	if err == nil {
		fix, err = wal.OpenFrom(dir, opts, resume)
	}
	if err != nil {
		wins.Close()
		e.settle()
		tsp.RecordError(err)
		return n, err
	}
	e.ingestMu.Lock()
	e.wal, e.wins = fix, wins
	e.win.replaying = true
	e.ingestMu.Unlock()
	m, err := e.replayFixes(ctx, fix)
	n += m
	e.ingestMu.Lock()
	e.win.replaying = false
	if err == nil {
		// The segments before the resume position: the window record that
		// covers them was read back, so it reached the disk; sync it first.
		if err = fix.TruncateThrough(resume, wins.Sync); err == nil {
			e.writeWindowLocked(ctx)
		}
	}
	e.ingestMu.Unlock()
	e.settle()
	walReplaySeconds.Set(time.Since(start).Seconds())
	walReplayedRecords.Set(float64(n))
	tsp.SetAttr("records", n)
	if err != nil {
		tsp.RecordError(err)
	}
	return n, err
}

// replayWindowLocked applies one window record's trips and cuts in their
// logged order and restores the window grid the record closed on. Callers
// hold ingestMu, with compaction not yet running.
func (e *Engine) replayWindowLocked(ctx context.Context, rec *windowRecord) {
	c := 0
	for i := range rec.trips {
		for ; c < len(rec.cuts) && rec.cuts[c] == i; c++ {
			e.sealWindowLocked(ctx)
		}
		e.queueTripLocked(&rec.trips[i].trip, rec.trips[i].stays)
	}
	for ; c < len(rec.cuts); c++ {
		e.sealWindowLocked(ctx)
	}
	e.ss.winEnd = rec.winEnd
}
