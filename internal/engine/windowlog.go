package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"slices"
	"time"

	"dlinfma/internal/geo"
	"dlinfma/internal/geocode"
	"dlinfma/internal/model"
	"dlinfma/internal/obs/trace"
	"dlinfma/internal/traj"
	"dlinfma/internal/wal"
)

// windowLogDir is the window log's directory under the fix log's.
const windowLogDir = "windows"

// A window record (tag 0x07) is the window log's one kind: the addresses
// and truth registered and the trips delivered since the previous record,
// in delivery order, the cuts among them, and the stream layer as it stood
// when the record was made — the open streams' fixes, the window grid, and
// the fix-log position just past the last op it covers. It is made at the
// end of every operation that cut or registered (a burst, a batch window, a
// Reinfer, a replay), not at the cut itself: the grid cuts in the middle of
// an op, between the trip it closed and that trip's delivery. An operation
// that registers writes its record as it ends, so a record's registration
// precedes every trip of it that routes by waybill. Little-endian:
//
//	0x07, resume seq u64, segment u64, offset u64, window end f64,
//	u32 addresses × (id u32, building u32, geocode x y f64, poi u8, mode u8),
//	u32 truth × (address u32, x y f64), ascending by address,
//	u32 trips × (courier u32, start f64, end f64,
//	             u8 routing fixes (0 or 1) × (x y t f64),
//	             u32 waybills × (address u32, received recorded actual lag f64),
//	             u32 stays × (x y arrive leave f64, points u32)),
//	u32 cuts × u32 (a cut before trip i; i = trips cuts after the last),
//	u32 streams × (courier u32, u32 fixes × (x y t f64))
const walTagWindow byte = 0x07

// The smallest encoding of each repeated part, which bounds the counts a
// record can claim.
const (
	compactAddrSize    = 2*4 + 2*8 + 2
	compactTruthSize   = 4 + 2*8
	compactTripSize    = 4 + 2*8 + 1 + 2*4 // without fix, waybills or stays
	compactWaybillSize = 4 + 4*8
	compactStaySize    = 4*8 + 4
	compactFixSize     = 3 * 8
)

// windowRecord is a decoded window record. Each trip's Traj holds its
// routing fix alone — the trajectory's midpoint, what shard.Router.TripShard
// routes a trip by when no shard owns one of its waybill addresses — or
// nothing for a trip without fixes, so a restart under another shard count
// routes as a live engine at that count does.
type windowRecord struct {
	resume  wal.Position
	winEnd  float64
	addrs   []model.AddressInfo
	truth   map[model.AddressID]geo.Point
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

// windowWriter builds the next window record under ingestMu: registrations
// and trips are encoded as they are made, cuts noted as they are made, and
// the record is closed and appended at the end of the operation.
type windowWriter struct {
	// failed is the error the window log failed with, which stops
	// compaction for the rest of the process: the fix log keeps growing, a
	// restart replays it from the last resume position, and a batch window,
	// whose one durable record is a window record, is refused.
	failed error
	// replaying defers the record to the end of a fix-log replay: mid-replay,
	// the fix log's end is not the position past the record being applied.
	replaying bool
	addrs     []byte
	nAddrs    int
	truth     map[model.AddressID]geo.Point
	trips     []byte
	n         int
	cuts      []uint32
	rec       []byte
}

// register encodes one operation's addresses, as given, and its truth.
func (ww *windowWriter) register(addrs []model.AddressInfo, truth map[model.AddressID]geo.Point) {
	b := ww.addrs
	for _, a := range addrs {
		b = binary.LittleEndian.AppendUint32(b, uint32(a.ID))
		b = binary.LittleEndian.AppendUint32(b, uint32(a.Building))
		b = appendFloats(b, a.Geocode.X, a.Geocode.Y)
		b = append(b, byte(a.POI), byte(a.GeocodeMode))
	}
	ww.addrs, ww.nAddrs = b, ww.nAddrs+len(addrs)
	if len(truth) > 0 && ww.truth == nil {
		ww.truth = make(map[model.AddressID]geo.Point, len(truth))
	}
	maps.Copy(ww.truth, truth)
}

// trip encodes one delivered trip: courier, times, routing fix, waybills
// and stay points.
func (ww *windowWriter) trip(tr *model.Trip, stays []traj.StayPoint) {
	b := binary.LittleEndian.AppendUint32(ww.trips, uint32(tr.Courier))
	b = appendFloats(b, tr.StartT, tr.EndT)
	if len(tr.Traj) == 0 {
		b = append(b, 0)
	} else {
		route := tr.Traj[len(tr.Traj)/2]
		b = appendFloats(append(b, 1), route.P.X, route.P.Y, route.T)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(tr.Waybills)))
	for _, w := range tr.Waybills {
		b = binary.LittleEndian.AppendUint32(b, uint32(w.Addr))
		b = appendFloats(b, w.ReceivedT, w.RecordedDeliveryT, w.ActualDeliveryT, w.ConfirmLag)
	}
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

// pending reports whether the operations since the last record cut or
// registered anything, so that a record is due.
func (ww *windowWriter) pending() bool {
	return len(ww.cuts) > 0 || ww.nAddrs > 0 || len(ww.truth) > 0
}

// record closes the pending record at resume, with the grid's window end
// and the open streams, and returns its payload; it is valid until the next
// call. The writer starts the next record empty.
func (ww *windowWriter) record(resume wal.Position, winEnd float64, streams []openStream) []byte {
	b := append(ww.rec[:0], walTagWindow)
	b = binary.LittleEndian.AppendUint64(b, resume.Seq)
	b = binary.LittleEndian.AppendUint64(b, resume.Segment)
	b = binary.LittleEndian.AppendUint64(b, uint64(resume.Offset))
	b = appendFloats(b, winEnd)
	b = binary.LittleEndian.AppendUint32(b, uint32(ww.nAddrs))
	b = append(b, ww.addrs...)
	// Map order is random; the record is not, so equal states log equal
	// bytes.
	ids := make([]model.AddressID, 0, len(ww.truth))
	for id := range ww.truth {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		p := ww.truth[id]
		b = appendFloats(binary.LittleEndian.AppendUint32(b, uint32(id)), p.X, p.Y)
	}
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
	ww.addrs, ww.nAddrs = ww.addrs[:0], 0
	clear(ww.truth)
	ww.trips, ww.n, ww.cuts = ww.trips[:0], 0, ww.cuts[:0]
}

func appendFloats(b []byte, fs ...float64) []byte {
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// windowReader reads a window or seal record's fields in order; the first
// short read sets err, and every read after it returns zero.
type windowReader struct {
	b   []byte
	err error
}

func (r *windowReader) take(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.err = errors.New("record cut short")
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *windowReader) u8() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
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

func (r *windowReader) point() geo.Point { return geo.Point{X: r.f64(), Y: r.f64()} }

func (r *windowReader) fix() traj.GPSPoint { return traj.GPSPoint{P: r.point(), T: r.f64()} }

// count reads a u32 count of items of at least size bytes each, refusing
// one the rest of the record cannot hold before anything is allocated.
func (r *windowReader) count(size int) int {
	n := int(r.u32())
	if r.err == nil && n > len(r.b)/size {
		r.err = fmt.Errorf("record claims %d items of %d bytes in %d", n, size, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return n
}

// decodeWindowRecord reads a 0x07 payload. Every count must fit in the
// bytes that follow it, the truth must ascend by address, a trip has at
// most one routing fix, the cuts must ascend within the trips, and nothing
// may trail the streams. What it accepts, the writer writes byte for byte.
func decodeWindowRecord(payload []byte) (*windowRecord, error) {
	r := &windowReader{b: payload}
	if len(r.take(1)) == 0 || payload[0] != walTagWindow {
		return nil, errors.New("not a window record")
	}
	rec := &windowRecord{resume: wal.Position{Seq: r.u64(), Segment: r.u64(), Offset: int64(r.u64())}, winEnd: r.f64()}
	if n := r.count(compactAddrSize); n > 0 {
		rec.addrs = make([]model.AddressInfo, n)
		for i := range rec.addrs {
			a := &rec.addrs[i]
			a.ID, a.Building, a.Geocode = model.AddressID(r.u32()), model.BuildingID(r.u32()), r.point()
			a.POI, a.GeocodeMode = geocode.POICategory(r.u8()), geocode.ErrorMode(r.u8())
		}
	}
	if n := r.count(compactTruthSize); n > 0 {
		rec.truth = make(map[model.AddressID]geo.Point, n)
		for i, prev := 0, int64(math.MinInt64); i < n && r.err == nil; i++ {
			id := model.AddressID(r.u32())
			if r.err == nil && int64(id) <= prev {
				r.err = fmt.Errorf("window record truth for address %d after %d", id, prev)
			}
			rec.truth[id], prev = r.point(), int64(id)
		}
	}
	rec.trips = make([]compactTrip, r.count(compactTripSize))
	for i := range rec.trips {
		ct := &rec.trips[i]
		ct.trip.Courier = model.CourierID(r.u32())
		ct.trip.StartT, ct.trip.EndT = r.f64(), r.f64()
		switch fixes := r.u8(); {
		case fixes == 1:
			ct.trip.Traj = traj.Trajectory{r.fix()}
		case fixes > 1 && r.err == nil:
			r.err = fmt.Errorf("window record trip %d claims %d routing fixes", i, fixes)
		}
		if n := r.count(compactWaybillSize); n > 0 {
			ct.trip.Waybills = make([]model.Waybill, n)
			for j := range ct.trip.Waybills {
				w := &ct.trip.Waybills[j]
				w.Addr = model.AddressID(r.u32())
				w.ReceivedT, w.RecordedDeliveryT, w.ActualDeliveryT, w.ConfirmLag = r.f64(), r.f64(), r.f64(), r.f64()
			}
		}
		if n := r.count(compactStaySize); n > 0 {
			ct.stays = make([]traj.StayPoint, n)
			for j := range ct.stays {
				sp := &ct.stays[j]
				sp.Loc, sp.ArriveT, sp.LeaveT = r.point(), r.f64(), r.f64()
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
				s.pts[j] = r.fix()
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

// compacting reports whether window records are being written. Callers
// hold ingestMu.
func (e *Engine) compacting() bool { return e.wins != nil && e.win.failed == nil }

// writeWindowLocked closes the pending window record, if the operation cut
// or registered anything, at the end of the operation: the record resumes
// the fix log at its end, and once the record is durable the fix log
// deletes the segments wholly before that point. A failing window log
// stops compaction (windowWriter.failed); the fix log still holds every
// streamed op, and the error is returned for the operation whose record
// was lost. Callers hold ingestMu.
func (e *Engine) writeWindowLocked(ctx context.Context) error {
	if !e.compacting() || e.win.replaying || !e.win.pending() {
		return nil
	}
	_, tsp := trace.Start(ctx, "engine.window_record")
	defer tsp.End()
	e.compactStep("cut")
	err := e.appendWindowLocked()
	if err != nil {
		tsp.RecordError(err)
		e.cfg.Logger.Error("window log failed; compaction and batch windows stop until restart", "err", err)
		e.win.failed = err
		e.win.reset()
	}
	return err
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
// window record, every seal a seal record, and the fix log is truncated
// behind each window record. The window log is read twice. The first pass
// indexes its seal records, each shard's by seal ordinal
// (indexSealRecords); the second applies its window records: their trips
// are delivered through the live queue, route and count path, their cuts
// made where the live engine made them, and the last record's open streams
// and window grid restored. The fix log is then opened at the last
// record's resume position and replayed from there, and none of it before
// that position is read. Every seal along the way, the fix log's included,
// installs its seal record where one made over the same stays and pool
// exists, and clusters the window (appending a new record) where none
// does; a found record that does not fit its seal fails OpenWAL, naming
// its sequence. It returns the number of window and fix records applied
// and how the seals were made. Close closes the logs.
func (e *Engine) OpenWAL(ctx context.Context, dir string, opts wal.Options) (WALReplay, error) {
	if e.remote {
		return WALReplay{}, errRemoteStreaming
	}
	ctx, tsp := trace.Start(ctx, "engine.wal_replay")
	defer tsp.End()
	start := time.Now()
	wopts := opts
	wopts.Log = "window"
	wins, err := wal.Open(filepath.Join(dir, windowLogDir), wopts)
	if err != nil {
		return WALReplay{}, err
	}
	found, err := e.indexSealRecords(wins)
	if err != nil {
		wins.Close()
		tsp.RecordError(err)
		return WALReplay{}, err
	}
	e.attachSeals(wins, found)
	var last *windowRecord
	n := 0
	err = wins.Replay(func(seq uint64, payload []byte) error {
		if len(payload) > 0 && (payload[0] == walTagSeal || payload[0] == walTagRetiredSeal) {
			return nil // indexed or skipped by the first pass
		}
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
		e.withIngestLock(func() { e.replayWindowLocked(ctx, last) })
		n++
		return nil
	})
	var resume wal.Position
	if err == nil && last != nil {
		e.withIngestLock(func() {
			for _, s := range last.streams {
				for _, p := range s.pts {
					e.ss.point(s.courier, p)
				}
			}
		})
		resume = last.resume
	}
	var fix *wal.WAL
	if err == nil {
		fix, err = wal.OpenFrom(dir, opts, resume)
	}
	if err != nil {
		e.settle()
		e.attachSeals(nil, nil)
		wins.Close()
		tsp.RecordError(err)
		return WALReplay{Records: n}, err
	}
	e.withIngestLock(func() {
		e.wal, e.wins = fix, wins
		e.win.replaying = true
	})
	m, err := e.replayFixes(ctx, fix)
	n += m
	e.withIngestLock(func() {
		e.win.replaying = false
		if err == nil {
			// The segments before the resume position: the window record
			// that covers them was read back, so it reached the disk; sync
			// it first. A failing window log is logged and stops
			// compaction; the fix log holds everything the record would
			// have.
			if err = fix.TruncateThrough(resume, wins.Sync); err == nil {
				_ = e.writeWindowLocked(ctx)
			}
		}
	})
	e.settle()
	rep := WALReplay{Records: n}
	var serr error
	rep.SealsInstalled, rep.SealsClustered, serr = e.endSealReplay()
	if err == nil {
		err = serr
	}
	walReplaySeconds.Set(time.Since(start).Seconds())
	walReplayedRecords.Set(float64(n))
	tsp.SetAttr("records", n)
	tsp.SetAttr("seals_installed", rep.SealsInstalled)
	tsp.SetAttr("seals_clustered", rep.SealsClustered)
	if err != nil {
		tsp.RecordError(err)
	}
	return rep, err
}

// WALReplay is what OpenWAL replayed: the window and fix records it
// applied, and the pool-window seals made along the way, by how — installed
// from their seal records or clustered.
type WALReplay struct {
	Records                        int
	SealsInstalled, SealsClustered int
}

// replayWindowLocked applies one window record's registration, then its
// trips and cuts in their logged order, and restores the window grid the
// record closed on. Callers hold ingestMu, with compaction not yet running.
func (e *Engine) replayWindowLocked(ctx context.Context, rec *windowRecord) {
	e.registerLocked(rec.addrs, rec.truth)
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
