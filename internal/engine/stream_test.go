package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dlinfma/internal/core"
	"dlinfma/internal/deploy"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/obs"
	"dlinfma/internal/shard"
	"dlinfma/internal/synth"
	"dlinfma/internal/traj"
	"dlinfma/internal/wal"
)

// streamTestConfig keeps extraction deterministic and training fast.
func streamTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Core.Workers = 1
	cfg.Matcher.MaxEpochs = 2
	cfg.Matcher.LR = 1e-3
	return cfg
}

// genTrip builds one courier trip of 90 s dwells (10 s fixes, small jitter)
// at each site, with StartT/EndT pinned to the first/last fix exactly as the
// streaming layer reconstructs them.
func genTrip(rng *rand.Rand, courier model.CourierID, t0 float64, sites ...geo.Point) model.Trip {
	var tr traj.Trajectory
	t := t0
	for _, s := range sites {
		for end := t + 90; t < end; t += 10 {
			tr = append(tr, traj.GPSPoint{
				P: geo.Point{X: s.X + rng.NormFloat64()*2, Y: s.Y + rng.NormFloat64()*2},
				T: t,
			})
		}
		t += 120 // travel gap, well under the 600 s trip-gap bound
	}
	return model.Trip{Courier: courier, StartT: tr[0].T, EndT: tr[len(tr)-1].T, Traj: tr}
}

// streamTrip pushes a trip's fixes one at a time and closes the stream.
func streamTrip(t *testing.T, si deploy.StreamIngestor, tr model.Trip) {
	t.Helper()
	ctx := context.Background()
	for _, p := range tr.Traj {
		if err := si.IngestPoint(ctx, tr.Courier, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := si.CloseStream(ctx, tr.Courier); err != nil {
		t.Fatal(err)
	}
}

// requireSameIngestState asserts two engines of one topology accumulated
// identical ingest state: same open streams on top, and shard by shard the
// same view of the evidence — the same trips, the same addresses and truth,
// and the same candidate pool (locations and visit logs).
func requireSameIngestState(t *testing.T, want, got *Engine) {
	t.Helper()
	if want.ss.open() != got.ss.open() {
		t.Fatalf("open streams: want %d, got %d", want.ss.open(), got.ss.open())
	}
	for c, cs := range want.ss.streams {
		gs := got.ss.streams[c]
		if gs == nil || !reflect.DeepEqual(cs.pts, gs.pts) || !reflect.DeepEqual(cs.stays, gs.stays) {
			t.Fatalf("open stream for courier %d differs", c)
		}
	}
	for i := range want.shards {
		w, pw := viewEvidence(t, want, i)
		g, pg := viewEvidence(t, got, i)
		if !reflect.DeepEqual(w.Trips, g.Trips) {
			t.Fatalf("shard %d: trips differ: %d vs %d", i, len(w.Trips), len(g.Trips))
		}
		if !reflect.DeepEqual(w.Addresses, g.Addresses) {
			t.Fatalf("shard %d: addresses differ:\nwant %+v\ngot  %+v", i, w.Addresses, g.Addresses)
		}
		if !reflect.DeepEqual(w.Truth, g.Truth) {
			t.Fatalf("shard %d: truth differs", i)
		}
		if !reflect.DeepEqual(pw.Locations, pg.Locations) {
			t.Fatalf("shard %d: pool locations differ:\nwant %+v\ngot  %+v", i, pw.Locations, pg.Locations)
		}
		if !reflect.DeepEqual(pw.Visits, pg.Visits) {
			t.Fatalf("shard %d: pool visit logs differ", i)
		}
	}
}

// viewEvidence is shard i's evidence as a re-inference reads it: the engine
// first cuts its open streamed window under ingestMu, as Reinfer does. A
// shard without trips has nothing to view and reads as an empty dataset and
// pool.
func viewEvidence(t *testing.T, e *Engine, i int) (*model.Dataset, *core.Pool) {
	t.Helper()
	ctx := context.Background()
	e.ingestMu.Lock()
	e.sealWindowLocked(ctx)
	e.ingestMu.Unlock()
	ds, pool, _, err := e.shards[i].ev.view(ctx)
	if errors.Is(err, errNoTrips) {
		return &model.Dataset{}, &core.Pool{}
	}
	if err != nil {
		t.Fatal(err)
	}
	return ds, pool
}

// TestStreamedIngestMatchesBatch is the engine half of the streaming
// bit-identity contract: feeding trips point by point through IngestPoint /
// CloseStream must leave the engine in exactly the state batch ingest of the
// same trips produces — same trips, same pool windows, same visit logs.
func TestStreamedIngestMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sites := []geo.Point{{X: 100, Y: 100}, {X: 140, Y: 100}, {X: 500, Y: 400}, {X: 90, Y: 430}}
	var trips []model.Trip
	t0 := 0.0
	for w := 0; w < 3; w++ { // three pool windows of streamed trips
		for c := 0; c < 4; c++ {
			a, b := sites[rng.Intn(len(sites))], sites[rng.Intn(len(sites))]
			trips = append(trips, genTrip(rng, model.CourierID(c), t0, a, b))
			t0 += 2000
		}
		t0 += 14 * 86400
	}

	batch := New(streamTestConfig())
	defer batch.Close()
	if err := batch.IngestDataset(context.Background(), &model.Dataset{Name: "s", Trips: trips}); err != nil {
		t.Fatal(err)
	}
	streamed := New(streamTestConfig())
	defer streamed.Close()
	for _, tr := range trips {
		streamTrip(t, streamed, tr)
	}

	requireSameIngestState(t, batch, streamed)
	if got := streamed.Status().PendingTrips; got != len(trips) {
		t.Fatalf("PendingTrips = %d, want %d", got, len(trips))
	}
}

// pipelineSample scrapes the process-wide registry for one sample's value
// (0 while the family has none).
func pipelineSample(t *testing.T, family, sample string) float64 {
	t.Helper()
	for _, s := range familySamples(t, family) {
		if s.Name == sample {
			return s.Value
		}
	}
	return 0
}

// familySamples scrapes obs.Default and returns one family's samples.
func familySamples(t *testing.T, family string) []obs.ExpoSample {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fam := fams[family]; fam != nil {
		return fam.Samples
	}
	return nil
}

// TestStayPointsCountedOnBothIngestPaths: every stay point a trip yields is
// counted once in dlinfma_pipeline_stay_points_total and once in the sum of
// dlinfma_pipeline_stays_per_trip, whether the trip was streamed fix by fix
// or ingested in a batch window. The registry is process-wide, so both are
// read as their change across each leg.
func TestStayPointsCountedOnBothIngestPaths(t *testing.T) {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	legs := []struct {
		name  string
		drive func(e *Engine)
	}{
		{"streamed", func(e *Engine) {
			for _, tr := range ds.Trips[:20] {
				streamTrip(t, e, tr)
			}
		}},
		{"batch", func(e *Engine) {
			if err := e.IngestDataset(context.Background(), ds); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, leg := range legs {
		e := New(streamTestConfig())
		total0 := pipelineSample(t, "dlinfma_pipeline_stay_points_total", "dlinfma_pipeline_stay_points_total")
		sum0 := pipelineSample(t, "dlinfma_pipeline_stays_per_trip", "dlinfma_pipeline_stays_per_trip_sum")
		leg.drive(e)
		total := pipelineSample(t, "dlinfma_pipeline_stay_points_total", "dlinfma_pipeline_stay_points_total") - total0
		sum := pipelineSample(t, "dlinfma_pipeline_stays_per_trip", "dlinfma_pipeline_stays_per_trip_sum") - sum0
		e.Close()
		if sum == 0 || total != sum {
			t.Errorf("%s: stay_points_total moved %+g, stays_per_trip_sum %+g; want equal and non-zero", leg.name, total, sum)
		}
	}
}

// TestStreamedTripsCountPerShard: a streamed trip is counted in
// dlinfma_engine_ingest_shard_trips and dlinfma_engine_ingest_skew like a
// batch trip. Those gauges publish the last writing engine's cumulative
// counts and the registry is process-wide, so a batch load first makes both
// shards' gauges this engine's, and the stream is read as their change.
func TestStreamedTripsCountPerShard(t *testing.T) {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	e := newStreamTestEngine(t, 2)
	defer e.Close()
	if err := e.IngestDataset(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	for i, n := range e.shardTrips {
		if n == 0 {
			t.Fatalf("the batch load left shard %d without trips, so its gauge is not this engine's", i)
		}
	}
	gauges := func() (per [2]float64, sum float64) {
		for _, s := range familySamples(t, "dlinfma_engine_ingest_shard_trips") {
			switch s.Labels["shard"] {
			case "0":
				per[0] = s.Value
			case "1":
				per[1] = s.Value
			}
		}
		return per, per[0] + per[1]
	}
	_, before := gauges()
	rng := rand.New(rand.NewSource(27))
	t0 := ds.Trips[len(ds.Trips)-1].EndT + 1000
	sites := []geo.Point{{X: 50, Y: 50}, {X: 90000, Y: 90000}, {X: 400, Y: 60000}}
	for c := 0; c < 6; c++ {
		streamTrip(t, e, genTrip(rng, model.CourierID(100+c), t0+float64(c)*2000, sites[c%len(sites)]))
	}
	per, after := gauges()
	if after-before != 6 {
		t.Fatalf("dlinfma_engine_ingest_shard_trips moved %+g over six streamed trips, want +6", after-before)
	}
	want := max(per[0], per[1]) / (after / 2)
	if got := pipelineSample(t, "dlinfma_engine_ingest_skew", "dlinfma_engine_ingest_skew"); math.Abs(got-want) > 1e-12 {
		t.Fatalf("dlinfma_engine_ingest_skew = %g, want %g (max over mean of %v)", got, want, per)
	}
}

// TestViewCutsNoWindow: a shard's view, as a Reinfer racing the stream
// takes it, leaves the pending streamed trips pending. Two engines stream
// the same trips fix by fix, one of them viewed halfway; once the engine
// cuts both windows, their pools are equal.
func TestViewCutsNoWindow(t *testing.T) {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	viewed, quiet := New(streamTestConfig()), New(streamTestConfig())
	defer viewed.Close()
	defer quiet.Close()
	for i, tr := range ds.Trips[:6] {
		streamTrip(t, viewed, tr)
		streamTrip(t, quiet, tr)
		if i == 2 {
			if _, _, _, err := viewed.shards[0].ev.view(context.Background()); !errors.Is(err, errNoTrips) {
				t.Fatalf("a view with only pending trips: err = %v, want errNoTrips", err)
			}
		}
	}
	requireSameIngestState(t, quiet, viewed)
	if _, pool := viewEvidence(t, quiet, 0); len(pool.Visits) != 6 {
		t.Fatalf("the cut pool covers %d trips, want 6", len(pool.Visits))
	}
}

// TestShardedBatchLoadCutsOncePerShard: a batch load at three shards
// queues each window's part on its shard and the engine cuts the window
// once, on every shard that took a part. Each shard's pool equals a
// reference builder fed that shard's core.PartitionDataset part window by
// window on the dataset's grid (core.ForEachWindow), and dlinfma_engine_ingest_windows_total
// (read as its change: the registry is process-wide) moves by exactly one
// per shard per window the shard took part in.
func TestShardedBatchLoadCutsOncePerShard(t *testing.T) {
	const nShards = 3
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	cfg := streamTestConfig()
	cfg.Core.PoolWindowSeconds = 3 * 86400 // several windows over Tiny's two weeks
	// Precision 7 gives every shard a part of Tiny's trips (the default
	// leaves one without).
	r, err := shard.NewRouter(nShards, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := NewSharded(cfg, r)
	defer e.Close()
	ctx := context.Background()
	windows0 := pipelineSample(t, "dlinfma_engine_ingest_windows_total", "dlinfma_engine_ingest_windows_total")
	if err := e.IngestDataset(ctx, ds); err != nil {
		t.Fatal(err)
	}
	moved := pipelineSample(t, "dlinfma_engine_ingest_windows_total", "dlinfma_engine_ingest_windows_total") - windows0

	// The dataset's window grid: which window each trip is in, by courier
	// and start (a part's trips are copies of the dataset's, in its order).
	type tripKey struct {
		c model.CourierID
		t float64
	}
	windowOf := map[tripKey]int{}
	nWindows := 0
	_ = core.ForEachWindow(ds.Trips, cfg.Core.PoolWindowSeconds, func(batch []model.Trip) error {
		for _, tr := range batch {
			windowOf[tripKey{tr.Courier, tr.StartT}] = nWindows
		}
		nWindows++
		return nil
	})
	want := 0
	for i, part := range core.PartitionDataset(ds, nShards, r.AddressShard, r.TripShard) {
		ref := core.NewIncrementalPoolBuilder(cfg.Core)
		pending := 0
		cut := func() {
			if pending > 0 {
				want++
				if err := ref.SealWindow(ctx); err != nil {
					t.Fatal(err)
				}
				pending = 0
			}
		}
		open := 0
		for _, tr := range part.Trips {
			if w := windowOf[tripKey{tr.Courier, tr.StartT}]; w != open {
				cut()
				open = w
			}
			ref.AppendTripStays(tr.Courier, traj.ExtractStayPoints(tr.Traj, cfg.Core.Noise, cfg.Core.Stay))
			pending++
		}
		cut()
		wantPool := ref.Finalize()
		_, got := viewEvidence(t, e, i)
		if len(wantPool.Visits) == 0 {
			t.Fatalf("shard %d took no trips: the load does not exercise three shards", i)
		}
		if !reflect.DeepEqual(wantPool.Locations, got.Locations) || !reflect.DeepEqual(wantPool.Visits, got.Visits) {
			t.Fatalf("shard %d: pool differs from its part's reference (%d vs %d locations)",
				i, len(wantPool.Locations), len(got.Locations))
		}
	}
	if len(windowOf) != len(ds.Trips) || nWindows < 2 || want <= nShards || moved != float64(want) {
		t.Fatalf("dlinfma_engine_ingest_windows_total moved %+g over %d windows of %d trips (%d keys), want %d (one per shard per window it took part in)",
			moved, nWindows, len(ds.Trips), len(windowOf), want)
	}
}

// TestStreamGapRuleCutsTrips pins the implicit trip boundary: a gap of
// tripGapSeconds or more between a courier's fixes closes the open trip; an
// explicit CloseStream closes the rest. Each closed trip keeps its times and
// hands the pool exactly the stay points batch extraction finds in its fixes.
func TestStreamGapRuleCutsTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cfg := streamTestConfig()
	e := New(cfg)
	defer e.Close()
	trips := func() []model.Trip {
		ds, _ := viewEvidence(t, e, 0)
		return ds.Trips
	}
	ctx := context.Background()
	first := genTrip(rng, 7, 0, geo.Point{X: 50, Y: 50})
	for _, p := range first.Traj {
		if err := e.IngestPoint(ctx, 7, p); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Status(); st.OpenStreams != 1 || len(trips()) != 0 {
		t.Fatalf("before gap: open=%d trips=%d", st.OpenStreams, len(trips()))
	}
	// Next fix lands 900 s after the last one: the gap rule closes trip one.
	second := genTrip(rng, 7, first.EndT+900, geo.Point{X: 300, Y: 50})
	for _, p := range second.Traj {
		if err := e.IngestPoint(ctx, 7, p); err != nil {
			t.Fatal(err)
		}
	}
	if len(trips()) != 1 {
		t.Fatalf("gap did not close the first trip: %d trips", len(trips()))
	}
	if tr := trips()[0]; tr.Courier != 7 || tr.StartT != first.StartT || tr.EndT != first.EndT {
		t.Fatalf("gap-closed trip differs from its fixes: %+v", tr)
	}
	if err := e.CloseStream(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if len(trips()) != 2 || e.Status().OpenStreams != 0 {
		t.Fatalf("after close: %d trips, %d open", len(trips()), e.Status().OpenStreams)
	}
	// Closing again is a no-op, not an error.
	if err := e.CloseStream(ctx, 7); err != nil || len(trips()) != 2 {
		t.Fatalf("idempotent close: err=%v trips=%d", err, len(trips()))
	}
	// trips() cut a window after each trip closed; the reference cuts the same.
	ref := core.NewIncrementalPoolBuilder(cfg.Core)
	for _, tr := range []model.Trip{first, second} {
		ref.AppendTripStays(tr.Courier, traj.ExtractStayPoints(tr.Traj, cfg.Core.Noise, cfg.Core.Stay))
		if err := ref.SealWindow(ctx); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.Finalize()
	_, got := viewEvidence(t, e, 0)
	if len(want.Locations) == 0 || !reflect.DeepEqual(want.Locations, got.Locations) || !reflect.DeepEqual(want.Visits, got.Visits) {
		t.Fatalf("streamed trips' stay points differ from batch extraction of their fixes:\nwant %+v\ngot  %+v",
			want.Locations, got.Locations)
	}
}

// TestBackpressure pins the bounded-backlog contract: once MaxPendingTrips
// trips await re-inference, live batch and point ingest answer
// deploy.ErrBackpressure (and count the rejection), while address-only
// metadata still flows.
func TestBackpressure(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg := streamTestConfig()
	cfg.MaxPendingTrips = 2
	e := New(cfg)
	defer e.Close()
	ctx := context.Background()
	site := geo.Point{X: 80, Y: 80}
	win := []model.Trip{genTrip(rng, 0, 0, site), genTrip(rng, 1, 300, site)}
	if err := e.Ingest(ctx, win, nil, nil); err != nil {
		t.Fatal(err)
	}

	before := backpressureRejects.Value()
	err := e.IngestPoint(ctx, 2, traj.GPSPoint{P: site, T: 1000})
	if !errors.Is(err, deploy.ErrBackpressure) {
		t.Fatalf("IngestPoint under backlog: %v, want ErrBackpressure", err)
	}
	err = e.Ingest(ctx, []model.Trip{genTrip(rng, 2, 2000, site)}, nil, nil)
	if !errors.Is(err, deploy.ErrBackpressure) {
		t.Fatalf("Ingest under backlog: %v, want ErrBackpressure", err)
	}
	if got := backpressureRejects.Value() - before; got != 2 {
		t.Fatalf("backpressure rejections counter moved by %d, want 2", got)
	}
	// Metadata-only ingest is never backpressured.
	if err := e.Ingest(ctx, nil, []model.AddressInfo{{ID: 9}}, nil); err != nil {
		t.Fatalf("address-only ingest under backlog: %v", err)
	}
	if e.Status().PendingTrips != 2 {
		t.Fatalf("rejected operations leaked into pending: %d", e.Status().PendingTrips)
	}
}

// TestWALCrashRecovery is the end-to-end durability contract, for one shard
// and for several under the one pair of logs and stream set on top: kill
// the process mid-session (simulated by abandoning the engine and its logs
// without any orderly shutdown) and a fresh engine opening copies of the
// logs holds exactly the state the dead one had, shard by shard — including
// the still-open stream.
func TestWALCrashRecovery(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { testWALCrashRecovery(t, n) })
	}
}

// newStreamTestEngine builds an n-shard engine on streamTestConfig.
func newStreamTestEngine(t *testing.T, n int) *Engine {
	t.Helper()
	if n == 1 {
		return New(streamTestConfig())
	}
	r, err := shard.NewRouter(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewSharded(streamTestConfig(), r)
}

func testWALCrashRecovery(t *testing.T, n int) {
	newEngine := func() *Engine { return newStreamTestEngine(t, n) }
	rng := rand.New(rand.NewSource(24))
	dir := t.TempDir()
	opts := wal.Options{Policy: wal.FsyncAlways}
	live := newEngine()
	defer live.Close()
	ctx := context.Background()
	if _, err := live.OpenWAL(ctx, dir, opts); err != nil {
		t.Fatal(err)
	}

	// Two far-apart regions so several shards see work.
	siteA, siteB := geo.Point{X: 50, Y: 50}, geo.Point{X: 90000, Y: 90000}
	batchWin := []model.Trip{genTrip(rng, 0, 0, siteA), genTrip(rng, 1, 500, siteB)}
	addrs := []model.AddressInfo{{ID: 1, Geocode: siteA}, {ID: 2, Geocode: siteB}}
	truth := map[model.AddressID]geo.Point{1: siteA}
	if err := live.Ingest(ctx, batchWin, addrs, truth); err != nil {
		t.Fatal(err)
	}
	// One whole streamed trip, then two interleaved courier streams; courier
	// 5 closes, courier 6 stays open.
	t4 := genTrip(rng, 4, 2000, siteB)
	streamTrip(t, live, t4)
	t5, t6 := genTrip(rng, 5, 3000, siteA, siteB), genTrip(rng, 6, 3100, siteB)
	for i := 0; i < len(t5.Traj) || i < len(t6.Traj); i++ {
		if i < len(t5.Traj) {
			if err := live.IngestPoint(ctx, 5, t5.Traj[i]); err != nil {
				t.Fatal(err)
			}
		}
		if i < len(t6.Traj) {
			if err := live.IngestPoint(ctx, 6, t6.Traj[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := live.CloseStream(ctx, 5); err != nil {
		t.Fatal(err)
	}
	wantRecords := 1 + len(t4.Traj) + 1 + len(t5.Traj) + len(t6.Traj) + 1 // the window's record + points + ends
	if got := live.wal.LastSeq(); got != uint64(wantRecords-1) {
		t.Fatalf("the fix log holds %d records, want %d", got, wantRecords-1)
	}
	if st := live.Status(); st.OpenStreams != 1 || st.PendingTrips != 4 {
		t.Fatalf("live status: open=%d pending=%d, want 1/4", st.OpenStreams, st.PendingTrips)
	}
	// Crash: no Close on the engine or the logs. The recovered engine opens
	// a copy of them: both engines go on appending, each to its own.
	recDir := filepath.Join(t.TempDir(), "recovered")
	copyDir(t, dir, recDir)
	recovered := newEngine()
	defer recovered.Close()
	rep, err := recovered.OpenWAL(ctx, recDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != wantRecords {
		t.Fatalf("replayed %d records, want %d", rep.Records, wantRecords)
	}
	requireSameIngestState(t, live, recovered)
	if st := recovered.Status(); st.OpenStreams != 1 || st.PendingTrips != 4 {
		t.Fatalf("recovered status: open=%d pending=%d, want 1/4", st.OpenStreams, st.PendingTrips)
	}
	// The recovered engine keeps streaming where the dead one left off:
	// closing courier 6 yields the identical trip and pool on both engines.
	if err := live.CloseStream(ctx, 6); err != nil {
		t.Fatal(err)
	}
	if err := recovered.CloseStream(ctx, 6); err != nil {
		t.Fatal(err)
	}
	requireSameIngestState(t, live, recovered)
}

// TestReinferWindowCutReplays: Reinfer cuts the open streamed window, and
// logs the cut before it makes it (a 0x06 record), so a replay of the log
// cuts the stream where the live engine did and holds the same pool.
func TestReinferWindowCutReplays(t *testing.T) {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Policy: wal.FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	live := New(streamTestConfig())
	defer live.Close()
	live.AttachWAL(w)
	for i, tr := range ds.Trips[:6] {
		streamTrip(t, live, tr)
		if i == 2 {
			// Only the retrain's cut matters here: streamed trips carry no
			// waybills, so there is nothing to fit and it fails after it.
			_ = live.Reinfer(ctx)
		}
	}
	recovered := New(streamTestConfig())
	defer recovered.Close()
	if _, err := recovered.ReplayWAL(ctx, w); err != nil {
		t.Fatal(err)
	}
	requireSameIngestState(t, live, recovered)
}

// TestShardKeepsNoFixes pins what a shard keeps of a trip once the pool
// builder has its stay points: courier, times and waybills, never the fixes —
// whether the trip arrived in a batch window or closed on a stream — and
// that dropping them never reaches into the caller's trips.
func TestShardKeepsNoFixes(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			ds, _, err := synth.Generate(synth.Tiny())
			if err != nil {
				t.Fatal(err)
			}
			fixes := make([]traj.Trajectory, len(ds.Trips))
			for i, tr := range ds.Trips {
				fixes[i] = append(traj.Trajectory(nil), tr.Traj...)
			}
			e := newStreamTestEngine(t, n)
			defer e.Close()
			if err := e.IngestDataset(context.Background(), ds); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(26))
			last := ds.Trips[len(ds.Trips)-1].EndT
			for c, site := range []geo.Point{{X: 50, Y: 50}, {X: 90000, Y: 90000}} {
				streamTrip(t, e, genTrip(rng, model.CourierID(100+c), last+1000, site))
			}

			kept := 0
			for i := range e.shards {
				ds, _ := viewEvidence(t, e, i)
				for j, tr := range ds.Trips {
					if tr.Traj != nil {
						t.Fatalf("shard %d trip %d retains %d fixes", i, j, len(tr.Traj))
					}
					if tr.EndT <= tr.StartT {
						t.Fatalf("shard %d trip %d lost its times: %+v", i, j, tr)
					}
					kept++
				}
			}
			if kept < len(ds.Trips)+2 {
				t.Fatalf("shards hold %d trips, want at least %d", kept, len(ds.Trips)+2)
			}
			for i, tr := range ds.Trips {
				if !reflect.DeepEqual(tr.Traj, fixes[i]) {
					t.Fatalf("ingest modified the caller's trip %d", i)
				}
			}
		})
	}
}

// TestSnapshotRestartKeepsEvidence is the twin test of a restart: a live
// engine runs a seeded script on logs of 4 KiB segments. First a streamed
// phase: trips near the dataset's addresses, one burst each, with a small
// stay bound so windows cut often and one courier's trip open across several
// cuts; every cut writes a window record and truncates the fix log behind
// it. Then two rounds of batch windows (the first batch record ends
// compaction), a re-inference and a snapshot, with one courier's streamed
// trip open from the first round's windows until after the second round's
// snapshot. At every crash point — each step of a window record (after the
// cut, with the cut's seals done and their seal records appended; after the
// same seals with the seal records past the last window record dropped;
// after the record, after its sync, after the truncation it allowed), and
// after each round's ingest, Reinfer and SaveSnapshotFile — the log
// directory is copied and a twin restarts from the snapshot on disk, if any,
// plus the copied logs. Right after the restart the twin holds the live
// engine's trips, addresses and open streams, and serves what the last save
// wrote: the live engine's answers, except after a re-inference the crash
// beat to disk. Where it serves the live engine's answers it also has the
// live engine's backlog: the snapshot says how many trips its state was
// trained on, so the replayed trips it covers are not pending again. At each
// step of the window record a second twin restarts under the other shard
// count (1 or 3), where no seal record applies, and restarts again from its
// own logs, where every seal must install its record and none re-cluster; it
// follows a reference engine fed the same script at that count. From then
// on every twin runs the rest of the script beside the live engine (the
// saves excepted); after one more window and a re-inference on all of
// them, every shard of every twin publishes its reference's frozen store.
// Reinfers is a per-process counter — a restart starts it over — so it is
// not compared.
func TestSnapshotRestartKeepsEvidence(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { testSnapshotRestartKeepsEvidence(t, n) })
	}
}

func testSnapshotRestartKeepsEvidence(t *testing.T, n int) {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()
	logDir, snap := filepath.Join(dir, "wal"), filepath.Join(dir, "snap.json")
	opts := wal.Options{SegmentBytes: 4096, Policy: wal.FsyncInterval}
	const maxStays = 5
	engineAt := func(n int) *Engine {
		e := newStreamTestEngine(t, n)
		e.ss.maxStays = maxStays
		t.Cleanup(e.Close)
		return e
	}
	other := 3 // the shard count cross twins restart under
	if n == 3 {
		other = 1
	}
	live := engineAt(n)
	if _, err := live.OpenWAL(ctx, logDir, opts); err != nil {
		t.Fatal(err)
	}
	// engines are the live engine, then its twins; cross is the reference
	// engine at the other shard count, then the twins restarted under it.
	engines, cross := []*Engine{live}, []*Engine{engineAt(other)}

	// The streamed trip is the dataset's last one, under a courier of its
	// own; the final window is the trips between it and the two rounds.
	last := len(ds.Trips) - 1
	stream := ds.Trips[last]
	stream.Courier = 1 << 20
	half := len(stream.Traj) / 2
	rounds := [][]model.Trip{ds.Trips[:9], ds.Trips[9:18]}
	final := ds.Trips[18:last]

	each := func(step func(e *Engine) error) {
		t.Helper()
		// A crash inside the live engine's step adds twins that already
		// hold the step: ranging over the slices as they stood skips them.
		for _, group := range [][]*Engine{engines, cross} {
			for _, e := range group {
				if err := step(e); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// retry is the batch operation every engine is running, if any. Its one
	// durable record is its window record, so a twin restarted before that
	// record is written (the "cut" step) lacks it, never acknowledged, and
	// takes it as the producer's retry.
	var retry func(e *Engine) error
	batchOp := func(op func(e *Engine) error) {
		t.Helper()
		retry = op
		each(op)
		retry = nil
	}
	ingest := func(trips []model.Trip) {
		t.Helper()
		if err := core.ForEachWindow(trips, live.cfg.Core.PoolWindowSeconds, func(batch []model.Trip) error {
			batchOp(func(e *Engine) error { return e.Ingest(ctx, batch, nil, nil) })
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	burst := func(ops []deploy.StreamOp) {
		t.Helper()
		each(func(e *Engine) error {
			_, err := e.IngestBurst(ctx, ops)
			return err
		})
	}
	push := func(pts traj.Trajectory) {
		t.Helper()
		for _, p := range pts {
			burst([]deploy.StreamOp{{Courier: stream.Courier, Pt: p}})
		}
	}

	saved := 0 // Inferred as of the last save: what a restart serves
	// current says the last save holds the live engine's served state: no
	// re-inference since.
	current := true
	// restart copies the logs as they stand — every append is flushed to
	// the kernel, which is what a killed process leaves — and restarts a
	// twin at n shards from the copy, which retries the unrecorded batch
	// operation, if any.
	twins := 0
	restartFrom := func(src, point string, n int, unrecorded func(e *Engine) error, damage func(dir string)) (*Engine, string) {
		t.Helper()
		twins++
		twinDir := filepath.Join(dir, fmt.Sprintf("twin%d", twins))
		copyDir(t, src, twinDir)
		if damage != nil {
			damage(twinDir)
		}
		twin := engineAt(n)
		if _, err := os.Stat(snap); err == nil {
			declined := snapshotDecoderFallbacks.Value()
			if err := twin.LoadSnapshotFile(snap); err != nil {
				t.Fatalf("%s: %v", point, err)
			}
			if snapshotDecoderFallbacks.Value() != declined {
				t.Fatalf("%s: the saved snapshot fell back to encoding/json", point)
			}
		}
		if _, err := twin.OpenWAL(ctx, twinDir, opts); err != nil {
			t.Fatalf("%s: %v", point, err)
		}
		if unrecorded != nil {
			if err := unrecorded(twin); err != nil {
				t.Fatalf("%s, retrying the batch operation: %v", point, err)
			}
		}
		got, want := twin.Status(), live.Status()
		if got.Trips != want.Trips || got.Addresses != want.Addresses || got.OpenStreams != want.OpenStreams || got.Inferred != saved {
			t.Fatalf("%s: restarted twin holds %d trips, %d addresses, %d open streams, %d inferred; want %d, %d, %d, %d",
				point, got.Trips, got.Addresses, got.OpenStreams, got.Inferred, want.Trips, want.Addresses, want.OpenStreams, saved)
		}
		// A shard counts every trip queued on it as pending, replicas
		// included, so only a twin at the live engine's count has its
		// backlog.
		if current && len(twin.shards) == len(live.shards) && got.PendingTrips != want.PendingTrips {
			t.Fatalf("%s: restarted twin has %d pending trips, the live engine %d", point, got.PendingTrips, want.PendingTrips)
		}
		return twin, twinDir
	}
	restart := func(point string, n int, unrecorded func(e *Engine) error, damage func(dir string)) *Engine {
		t.Helper()
		twin, _ := restartFrom(logDir, point, n, unrecorded, damage)
		return twin
	}
	crash := func(point string) {
		t.Helper()
		engines = append(engines, restart(point, n, nil, nil))
	}
	// crossTwin restarts a twin at the other shard count, where none of the
	// live engine's seal records apply, then a second twin from the first
	// one's logs, which hold a seal record for every seal the first made:
	// the second replays them all and clusters nothing.
	crossTwin := func(point string, unrecorded func(e *Engine) error, damage func(dir string)) *Engine {
		t.Helper()
		first, firstDir := restartFrom(logDir, point, other, unrecorded, damage)
		first.settle()
		second, _ := restartFrom(firstDir, point+", restarted again", other, nil, nil)
		if installed, clustered := sealCounts(second); clustered != 0 || installed != sealCountsSum(first) {
			t.Fatalf("%s, restarted again: %d seals installed, %d clustered; the first restart made %d", point, installed, clustered, sealCountsSum(first))
		}
		return second
	}

	// Each phase crashes at the first occurrence of each step of a window
	// record, the truncation only where it deleted a segment, at n shards
	// and at the other count. At the cut the live engine first waits for
	// the cut's seals, so their seal records are in the log and its window
	// record is not: a crash there has the seal records, and the crash
	// before them (step "seal") has them dropped, at the first cut whose
	// seals wrote any.
	var crashed map[string]bool
	crashAtSteps := func(phase string) {
		crashed = map[string]bool{}
		prev := ""
		live.onCompactStep = func(step string) {
			if step == "truncate" && prev != "durable" {
				step = "truncate (nothing deleted)"
			}
			prev = step
			if step == "cut" {
				live.settle()
				if !crashed["seal"] && sealTail(t, logDir) > 0 {
					crashed["seal"] = true
					point := phase + ", after the cut's seals, before their seal records"
					drop := func(dir string) { dropSealTail(t, dir) }
					engines = append(engines, restart(point, n, retry, drop))
					cross = append(cross, crossTwin(point+fmt.Sprintf(", at %d shards", other), retry, drop))
				}
			}
			if crashed[step] || step == "truncate (nothing deleted)" {
				return
			}
			crashed[step] = true
			point := phase + ", after the window record's " + step
			if step == "cut" {
				point = phase + ", after the cut's seal records"
			}
			var unrecorded func(e *Engine) error
			if step == "cut" {
				unrecorded = retry
			}
			engines = append(engines, restart(point, n, unrecorded, nil))
			cross = append(cross, crossTwin(point+fmt.Sprintf(", at %d shards", other), unrecorded, nil))
		}
	}
	requireEverySteps := func(phase string) {
		t.Helper()
		live.onCompactStep = nil
		for _, step := range []string{"seal", "cut", "record", "durable", "truncate"} {
			if !crashed[step] {
				t.Fatalf("the %s never reached a window record's %q step", phase, step)
			}
		}
	}

	crashAtSteps("streamed phase")
	rng := rand.New(rand.NewSource(27))
	site := func(i int) geo.Point { return ds.Addresses[i%len(ds.Addresses)].Geocode }
	open := genTrip(rng, 1<<21, 0, site(0), site(1), site(2), site(3))
	send := func(c model.CourierID, pts traj.Trajectory, end bool) {
		t.Helper()
		var ops []deploy.StreamOp
		for _, p := range pts {
			ops = append(ops, deploy.StreamOp{Courier: c, Pt: p})
		}
		if end {
			ops = append(ops, deploy.StreamOp{Courier: c, End: true})
		}
		burst(ops)
	}
	send(open.Courier, open.Traj[:9], false)
	for i := 0; i < 12; i++ {
		// Five days apart: the grid cuts too, and a restart must carry it on.
		tr := genTrip(rng, model.CourierID(1<<21+1+i), float64(i)*5*86400, site(3*i), site(3*i+1), site(3*i+2))
		send(tr.Courier, tr.Traj, true)
		if i == 5 {
			send(open.Courier, open.Traj[9:], true)
		}
	}
	requireEverySteps("streamed phase")

	// The batch phase: every batch window's record compacts the fix log as
	// a streamed one does. The gauge is process-wide and a twin's restart
	// sets it too, so the live fix log's own compaction point, where its
	// replay starts, is read beside it.
	compacted := func() (gauge float64, start uint64) {
		t.Helper()
		for _, s := range familySamples(t, "dlinfma_wal_compacted_seq") {
			if s.Labels["log"] == "fix" {
				gauge = s.Value
			}
		}
		start = live.wal.LastSeq() + 1
		stop := errors.New("stop")
		if err := live.wal.Replay(func(seq uint64, _ []byte) error { start = seq; return stop }); err != nil && err != stop {
			t.Fatalf("replaying the live fix log: %v", err)
		}
		return gauge, start
	}
	gaugeBefore, startBefore := compacted()
	crashAtSteps("batch phase")
	batchOp(func(e *Engine) error { return e.Ingest(ctx, nil, ds.Addresses, ds.Truth) })
	for r, trips := range rounds {
		ingest(trips)
		if r == 0 {
			push(stream.Traj[:half])
		}
		crash(fmt.Sprintf("round %d, after ingest", r))
		each(func(e *Engine) error { return e.Reinfer(ctx) })
		current = false
		crash(fmt.Sprintf("round %d, after Reinfer", r))
		if err := live.SaveSnapshotFile(snap); err != nil {
			t.Fatal(err)
		}
		saved, current = live.Status().Inferred, true
		crash(fmt.Sprintf("round %d, after the snapshot", r))
	}
	requireEverySteps("batch phase")
	if gauge, start := compacted(); gauge <= gaugeBefore || start <= startBefore {
		t.Fatalf("the fix log's compaction point stayed through the batch phase: the gauge %v (from %v), the live log's replay starts at %d (from %d)",
			gauge, gaugeBefore, start, startBefore)
	}

	// One more window, the streamed trip's close, and a re-inference: every
	// twin now trains on exactly its reference's evidence.
	push(stream.Traj[half:])
	each(func(e *Engine) error { return e.CloseStream(ctx, stream.Courier) })
	each(func(e *Engine) error { return e.Ingest(ctx, final, nil, nil) })
	each(func(e *Engine) error { return e.Reinfer(ctx) })
	if live.Status().Inferred == 0 {
		t.Fatal("the live engine infers nothing")
	}
	for _, group := range [][]*Engine{engines, cross} {
		ref := group[0]
		for k, twin := range group[1:] {
			requireSameIngestState(t, ref, twin)
			for i := range ref.shards {
				want, got := ref.shards[i].frozen(), twin.shards[i].frozen()
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("twin %d (of %d) at %d shards: shard %d's frozen store differs from its reference's",
						k+1, len(group)-1, len(ref.shards), i)
				}
			}
		}
	}
}

// copyDir copies src, its subdirectories included, into a new directory
// dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ents {
		if d.IsDir() {
			copyDir(t, filepath.Join(src, d.Name()), filepath.Join(dst, d.Name()))
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, d.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, d.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedShardSnapshotFailsSave: when a two-shard engine's snapshot
// cannot be written — its temp file's path is taken by a directory —
// SaveSnapshotFile reports it, the file at path is still the previous save
// and restores that save's answers exactly, and the window log, which holds
// the batch windows, keeps every segment, as after any save: it is the
// evidence's only durable record.
func TestFailedShardSnapshotFailsSave(t *testing.T) {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	logDir := filepath.Join(dir, "wal")
	newEngine := func() *Engine {
		r, err := shard.NewRouter(2, 8)
		if err != nil {
			t.Fatal(err)
		}
		return NewSharded(streamTestConfig(), r)
	}
	e := newEngine()
	defer e.Close()
	ctx := context.Background()
	if _, err := e.OpenWAL(ctx, logDir, wal.Options{SegmentBytes: 4096, Policy: wal.FsyncNever}); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "snap.json")

	// Generation one: half the dataset, re-inferred and saved.
	half := *ds
	half.Trips = ds.Trips[:len(ds.Trips)/2]
	if err := e.IngestDataset(ctx, &half); err != nil {
		t.Fatal(err)
	}
	if err := e.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveSnapshotFile(snap); err != nil {
		t.Fatal(err)
	}
	probe := deliveredAddrOf(t, &half)
	genOne := e.InferredLocations()

	// Generation two covers more of the WAL, but the snapshot's temp-file
	// path is taken by a directory, so it cannot be written.
	if err := e.Ingest(ctx, ds.Trips[len(ds.Trips)/2:], nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(e.InferredLocations(), genOne) {
		t.Fatal("generation two serves generation one's answers: restoring either would pass")
	}
	if err := os.Mkdir(snap+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	segsBefore := walSegments(t, filepath.Join(logDir, windowLogDir))
	if segsBefore < 2 {
		t.Fatalf("need several WAL segments for a truncation to show, got %d", segsBefore)
	}
	if err := e.SaveSnapshotFile(snap); err == nil {
		t.Fatal("SaveSnapshotFile succeeded although its file could not be written")
	}
	if got := walSegments(t, filepath.Join(logDir, windowLogDir)); got != segsBefore {
		t.Fatalf("failed save truncated the WAL: %d segments before, %d after", segsBefore, got)
	}

	// The file on disk is still generation one's, and it still loads.
	restored := newEngine()
	defer restored.Close()
	if err := restored.LoadSnapshotFile(snap); err != nil {
		t.Fatalf("previous snapshot no longer loads: %v", err)
	}
	if _, src := restored.Query(probe); src == deploy.SourceNone {
		t.Fatal("engine restored from the previous snapshot does not answer")
	}
	if got := restored.InferredLocations(); !reflect.DeepEqual(got, genOne) {
		t.Fatalf("previous snapshot restored %d answers, generation one served %d (or they differ)", len(got), len(genOne))
	}
}

// deliveredAddrOf returns an address some trip of ds delivers to.
func deliveredAddrOf(t *testing.T, ds *model.Dataset) model.AddressID {
	t.Helper()
	for _, tr := range ds.Trips {
		if len(tr.Waybills) > 0 {
			return tr.Waybills[0].Addr
		}
	}
	t.Fatal("no delivered address")
	return 0
}

// walSegments counts the log's segment files in dir.
func walSegments(t *testing.T, dir string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return len(segs)
}
