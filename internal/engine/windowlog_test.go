package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dlinfma/internal/deploy"
	"dlinfma/internal/geo"
	"dlinfma/internal/geocode"
	"dlinfma/internal/model"
	"dlinfma/internal/traj"
	"dlinfma/internal/wal"
)

// streamWindows streams trips of three stays each, three days apart, into
// e — several windows under a stay bound of 4 and the grid both — with one
// courier's stream left open, and returns the ops.
func streamWindows(t *testing.T, e *Engine, trips int) []deploy.StreamOp {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	var all []deploy.StreamOp
	feed := func(ops []deploy.StreamOp) {
		t.Helper()
		if _, err := e.IngestBurst(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
		all = append(all, ops...)
	}
	sites := []geo.Point{{X: 100, Y: 100}, {X: 400, Y: 100}, {X: 90000, Y: 90000}, {X: 700, Y: 900}}
	for i := 0; i < trips; i++ {
		tr := genTrip(rng, model.CourierID(i+1), float64(i)*3*86400, sites[i%4], sites[(i+1)%4], sites[(i+2)%4])
		var ops []deploy.StreamOp
		for j, p := range tr.Traj {
			if i == trips-1 && j == len(tr.Traj)/2 {
				break // the last trip stays open
			}
			ops = append(ops, deploy.StreamOp{Courier: tr.Courier, Pt: p})
		}
		if i < trips-1 {
			ops = append(ops, deploy.StreamOp{Courier: tr.Courier, End: true})
		}
		feed(ops)
	}
	return all
}

// TestOpenWALResumesAtLastCut: a restart on the logs of a killed engine
// applies the window records, reads the fix log only past the last one's
// resume position — every byte before it is overwritten first — and holds
// the live engine's ingest state, open stream included, at one shard and
// at three; it keeps streaming where the dead engine left off. The fix log
// retains less than it appended, and fewer records are replayed than were
// logged.
func TestOpenWALResumesAtLastCut(t *testing.T) {
	for _, n := range []int{1, 3} {
		dir := t.TempDir()
		opts := wal.Options{SegmentBytes: 2048, Policy: wal.FsyncInterval}
		live := newStreamTestEngine(t, n)
		live.ss.maxStays = 4
		if _, err := live.OpenWAL(context.Background(), dir, opts); err != nil {
			t.Fatal(err)
		}
		ops := streamWindows(t, live, 12)
		appended, retained := live.wal.LastSeq(), retainedBytesOf(t, "fix")
		if records := windowRecords.Value(); records == 0 {
			t.Fatal("no window record was written")
		}
		// Crash: no Close; the twin restarts on a copy of the logs. Damage
		// the copy's fix log before the resume position.
		twinDir := filepath.Join(t.TempDir(), "twin")
		copyDir(t, dir, twinDir)
		resume := lastWindowRecord(t, twinDir).resume
		for _, name := range fixSegments(t, twinDir) {
			first := segmentFirst(t, name)
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case first < resume.Segment:
				t.Fatalf("segment %s before the resume position survived the truncation", name)
			case first == resume.Segment:
				copy(b, bytes.Repeat([]byte{0xEE}, int(resume.Offset)))
			}
			if err := os.WriteFile(name, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		twin := newStreamTestEngine(t, n)
		twin.ss.maxStays = 4
		defer twin.Close()
		rep, err := twin.OpenWAL(context.Background(), twinDir, opts)
		replayed := rep.Records
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		if replayed >= len(ops) || replayed < int(appended-resume.Seq+1) {
			t.Fatalf("shards=%d: replayed %d records of %d logged, %d past the resume position", n, replayed, len(ops), appended-resume.Seq+1)
		}
		if logged := float64(len(ops)) * (walPointSize + 8); retained >= logged {
			t.Fatalf("shards=%d: the fix log retains %v bytes of the %v it appended", n, retained, logged)
		}
		requireSameIngestState(t, live, twin)
		if twin.Status().OpenStreams != 1 {
			t.Fatalf("shards=%d: the restart lost the open stream", n)
		}
		last := ops[len(ops)-1].Courier
		for _, e := range []*Engine{live, twin} {
			if err := e.CloseStream(context.Background(), last); err != nil {
				t.Fatal(err)
			}
		}
		requireSameIngestState(t, live, twin)
		live.Close()
	}
}

// TestOpenWALRestartsAShortFixLog: a window record on disk whose fix-log
// tail before the resume position is not — what a power loss can leave
// under a lax policy — restarts the fix log at the resume position, and the
// restart holds the live engine's state: the record covers everything
// before it, and Reinfer's cut left nothing after it. A second restart,
// before any cut records a new position, resumes at the fresh segment.
func TestOpenWALRestartsAShortFixLog(t *testing.T) {
	dir := t.TempDir()
	opts := wal.Options{SegmentBytes: 1 << 20, Policy: wal.FsyncInterval}
	live := New(streamTestConfig())
	live.ss.maxStays = 4
	defer live.Close()
	if _, err := live.OpenWAL(context.Background(), dir, opts); err != nil {
		t.Fatal(err)
	}
	ops := streamWindows(t, live, 6)
	_ = live.Reinfer(context.Background()) // streamed trips carry no waybills: only the cut matters
	twinDir := filepath.Join(t.TempDir(), "twin")
	copyDir(t, dir, twinDir)
	resume := lastWindowRecord(t, twinDir).resume
	if resume.Seq != uint64(len(ops))+2 {
		t.Fatalf("the last record resumes at %d, want past the %d ops and the cut", resume.Seq, len(ops))
	}
	if err := os.Truncate(filepath.Join(twinDir, fmt.Sprintf("wal-%016x.log", resume.Segment)), resume.Offset/2); err != nil {
		t.Fatal(err)
	}
	twin := New(streamTestConfig())
	twin.ss.maxStays = 4
	defer twin.Close()
	if _, err := twin.OpenWAL(context.Background(), twinDir, opts); err != nil {
		t.Fatal(err)
	}
	if got := len(fixSegments(t, twinDir)); got != 1 {
		t.Fatalf("the restarted fix log has %d segments, want the fresh one", got)
	}
	requireSameIngestState(t, live, twin)

	// The window log still resumes in the deleted segment; a second restart
	// resumes at the fresh one.
	againDir := filepath.Join(t.TempDir(), "again")
	copyDir(t, twinDir, againDir)
	again := New(streamTestConfig())
	again.ss.maxStays = 4
	defer again.Close()
	if _, err := again.OpenWAL(context.Background(), againDir, opts); err != nil {
		t.Fatalf("second restart: %v", err)
	}
	requireSameIngestState(t, live, again)

	last := ops[len(ops)-1].Courier
	for _, e := range []*Engine{live, twin, again} {
		if err := e.CloseStream(context.Background(), last); err != nil {
			t.Fatal(err)
		}
	}
	requireSameIngestState(t, live, twin)
	requireSameIngestState(t, live, again)
}

// retainedBytesOf reads the retained-bytes gauge of one log.
func retainedBytesOf(t *testing.T, log string) float64 {
	t.Helper()
	for _, s := range familySamples(t, "dlinfma_wal_retained_bytes") {
		if s.Labels["log"] == log {
			return s.Value
		}
	}
	t.Fatalf("no retained-bytes sample for the %s log", log)
	return 0
}

// lastWindowRecord decodes the window log's last window record in dir; seal
// records may follow it.
func lastWindowRecord(t *testing.T, dir string) *windowRecord {
	t.Helper()
	w, err := wal.Open(filepath.Join(dir, windowLogDir), wal.Options{Policy: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var last []byte
	if err := w.Replay(func(_ uint64, p []byte) error {
		if p[0] == walTagWindow {
			last = bytes.Clone(p)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rec, err := decodeWindowRecord(last)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func fixSegments(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func segmentFirst(t *testing.T, name string) uint64 {
	t.Helper()
	var first uint64
	if _, err := fmt.Sscanf(filepath.Base(name), "wal-%016x.log", &first); err != nil {
		t.Fatal(err)
	}
	return first
}

// TestWindowLogRefusesOtherRecords: a fix-log record in the window log
// refuses the restart, naming its sequence there.
func TestWindowLogRefusesOtherRecords(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(filepath.Join(dir, windowLogDir), wal.Options{Policy: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var empty windowWriter
	empty.cut()
	point := appendWALOp(nil, &deploy.StreamOp{Courier: 3, Pt: traj.GPSPoint{T: 1}})
	for _, p := range [][]byte{empty.record(wal.Position{Seq: 1, Segment: 1}, 0, nil), point} {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	e := New(streamTestConfig())
	defer e.Close()
	_, err = e.OpenWAL(context.Background(), dir, wal.Options{})
	if err == nil || !strings.Contains(err.Error(), "window log record 2: point record in the window log") {
		t.Fatalf("OpenWAL = %v, want a refusal naming record 2", err)
	}
}

// FuzzWindowRecord holds the window record codec to a round trip both
// ways: a record the writer builds from a seeded generator decodes to what
// was written, and any payload the decoder accepts re-encodes to itself.
func FuzzWindowRecord(f *testing.F) {
	// The sample has addresses, truth, a waybill and a trip with no fixes.
	f.Add(int64(1), uint8(3), sampleWindowRecord()[1:])
	f.Add(int64(4), uint8(7), sampleWindowRecord()[1:len(sampleWindowRecord())-9])
	f.Add(int64(2), uint8(0), []byte{})
	f.Add(int64(3), uint8(9), bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		want := randomWindowRecord(rng, int(size%8))
		got, err := decodeWindowRecord(encodeWindowRecord(want))
		if err != nil {
			t.Fatalf("the writer's record does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\nwant %+v\ngot  %+v", want, got)
		}
		payload := append([]byte{walTagWindow}, raw...)
		if rec, err := decodeWindowRecord(payload); err == nil {
			if again := encodeWindowRecord(rec); !bytes.Equal(again, payload) {
				t.Fatalf("payload %x decodes to a record that encodes to %x", payload, again)
			}
		}
	})
}

// randomWindowRecord builds a record of up to n addresses, truths, trips,
// waybills, stays, cuts and open streams, with the fields the decoder fills
// the way it fills them (a lone routing fix or none, nil for no waybills or
// truth).
func randomWindowRecord(rng *rand.Rand, n int) *windowRecord {
	f := func() float64 { return rng.NormFloat64() * 1e6 }
	fix := func() traj.GPSPoint { return traj.GPSPoint{P: geo.Point{X: f(), Y: f()}, T: f()} }
	id := func() model.AddressID { return model.AddressID(rng.Int31() - 1<<30) }
	rec := &windowRecord{
		resume: wal.Position{Seq: rng.Uint64(), Segment: rng.Uint64(), Offset: rng.Int63()},
		winEnd: f(),
		trips:  make([]compactTrip, rng.Intn(n+1)),
	}
	for j := rng.Intn(n + 1); j > 0; j-- {
		rec.addrs = append(rec.addrs, model.AddressInfo{ID: id(), Building: model.BuildingID(rng.Int31()), Geocode: geo.Point{X: f(), Y: f()},
			POI: geocode.POICategory(rng.Intn(256) - 128), GeocodeMode: geocode.ErrorMode(rng.Intn(256) - 128)})
	}
	for j := rng.Intn(n + 1); j > 0; j-- {
		if rec.truth == nil {
			rec.truth = map[model.AddressID]geo.Point{}
		}
		rec.truth[id()] = geo.Point{X: f(), Y: f()}
	}
	for i := range rec.trips {
		ct := &rec.trips[i]
		ct.trip = model.Trip{Courier: model.CourierID(rng.Int31() - 1<<30), StartT: f(), EndT: f()}
		if rng.Intn(4) > 0 {
			ct.trip.Traj = traj.Trajectory{fix()}
		}
		for j := rng.Intn(n + 1); j > 0; j-- {
			ct.trip.Waybills = append(ct.trip.Waybills, model.Waybill{Addr: id(), ReceivedT: f(), RecordedDeliveryT: f(), ActualDeliveryT: f(), ConfirmLag: f()})
		}
		for j := rng.Intn(n + 1); j > 0; j-- {
			ct.stays = append(ct.stays, traj.StayPoint{Loc: geo.Point{X: f(), Y: f()}, ArriveT: f(), LeaveT: f(), NPoints: rng.Intn(1 << 20)})
		}
	}
	for c := rng.Intn(n + 1); c > 0; c-- {
		rec.cuts = append(rec.cuts, rng.Intn(len(rec.trips)+1))
	}
	slices.Sort(rec.cuts)
	for s := rng.Intn(n + 1); s > 0; s-- {
		st := openStream{courier: model.CourierID(rng.Int31()), pts: traj.Trajectory{}}
		for j := rng.Intn(n + 1); j > 0; j-- {
			st.pts = append(st.pts, fix())
		}
		rec.streams = append(rec.streams, st)
	}
	return rec
}

// TestBatchTripWithoutFixesReplays: a batch window may carry a trip with no
// fixes. Its window record says it has no routing fix, so a restart routes
// it as a live engine does — by its waybill addresses, or, with none, by
// TripShard's rule for an empty trajectory, to shard 0 — not by a made-up
// point: at one shard and at three, restarted under the same count and
// under the other one.
func TestBatchTripWithoutFixesReplays(t *testing.T) {
	ctx := context.Background()
	far := geo.Point{X: 90000, Y: 90000}
	addrs := []model.AddressInfo{{ID: 1, Geocode: far}}
	trips := []model.Trip{
		genTrip(rand.New(rand.NewSource(32)), 1, 0, far),
		{Courier: 2, StartT: 100, EndT: 200},
		{Courier: 3, StartT: 300, EndT: 400, Waybills: []model.Waybill{{Addr: 1, RecordedDeliveryT: 350}}},
	}
	trips[0].Waybills = []model.Waybill{{Addr: 1, RecordedDeliveryT: 50}}
	feed := func(e *Engine) {
		t.Helper()
		if err := e.Ingest(ctx, nil, addrs, map[model.AddressID]geo.Point{1: far}); err != nil {
			t.Fatal(err)
		}
		if err := e.Ingest(ctx, trips, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{1, 3} {
		dir := t.TempDir()
		live := newStreamTestEngine(t, n)
		defer live.Close()
		if _, err := live.OpenWAL(ctx, dir, wal.Options{Policy: wal.FsyncInterval}); err != nil {
			t.Fatal(err)
		}
		feed(live)
		ref := newStreamTestEngine(t, 4-n) // the other count: 3 or 1
		defer ref.Close()
		feed(ref)
		for _, want := range []*Engine{live, ref} {
			twinDir := filepath.Join(t.TempDir(), "twin")
			copyDir(t, dir, twinDir)
			twin := newStreamTestEngine(t, len(want.shards))
			defer twin.Close()
			if _, err := twin.OpenWAL(ctx, twinDir, wal.Options{}); err != nil {
				t.Fatalf("shards=%d, restarted at %d: %v", n, len(want.shards), err)
			}
			requireSameIngestState(t, want, twin)
			ds, _ := viewEvidence(t, twin, 0)
			if !slices.ContainsFunc(ds.Trips, func(tr model.Trip) bool { return tr.Courier == 2 }) {
				t.Fatalf("shards=%d, restarted at %d: the trip with neither fixes nor waybills is not on shard 0", n, len(want.shards))
			}
		}
	}
}
