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
// and for several under the one WAL and stream set on top: kill the process
// mid-session (simulated by abandoning the engine and its WAL without any
// orderly shutdown) and a fresh engine replaying the WAL holds exactly the
// state the dead one had, shard by shard — including the still-open stream.
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
	w, err := wal.Open(dir, wal.Options{Policy: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	live := newEngine()
	defer live.Close()
	live.AttachWAL(w)
	ctx := context.Background()

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
	wantRecords := 1 + len(t4.Traj) + 1 + len(t5.Traj) + len(t6.Traj) + 1 // ingest + points + ends
	if got := w.LastSeq(); got != uint64(wantRecords) {
		t.Fatalf("WAL holds %d records, want %d", got, wantRecords)
	}
	if st := live.Status(); st.OpenStreams != 1 || st.PendingTrips != 4 {
		t.Fatalf("live status: open=%d pending=%d, want 1/4", st.OpenStreams, st.PendingTrips)
	}
	// Crash: no Close on the engine or the WAL.

	w2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recovered := newEngine()
	defer recovered.Close()
	replayed, err := recovered.ReplayWAL(ctx, w2)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != wantRecords {
		t.Fatalf("replayed %d records, want %d", replayed, wantRecords)
	}
	recovered.AttachWAL(w2)
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

// TestWALTruncationAfterSnapshot checks the log-compaction loop: after a
// re-inference and a durable snapshot, WAL segments wholly covered by the
// snapshotted state are dropped, and a restart from snapshot + remaining WAL
// still serves.
func TestWALTruncationAfterSnapshot(t *testing.T) {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Small segments so ingest spans several and truncation visibly deletes.
	w, err := wal.Open(dir, wal.Options{SegmentBytes: 4096, Policy: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	e := New(streamTestConfig())
	defer e.Close()
	e.AttachWAL(w)
	ctx := context.Background()
	if err := e.IngestDataset(ctx, ds); err != nil {
		t.Fatal(err)
	}
	if walSegments(t, dir) < 2 {
		t.Fatalf("need several segments to observe truncation, got %d", walSegments(t, dir))
	}
	if err := e.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}
	segsBefore := walSegments(t, dir)
	snap := filepath.Join(dir, "snap.json")
	if err := e.SaveSnapshotFile(snap); err != nil {
		t.Fatal(err)
	}
	if got := walSegments(t, dir); got >= segsBefore {
		t.Fatalf("snapshot did not truncate the WAL: %d segments before, %d after", segsBefore, got)
	}

	// Restart: snapshot restores the serving state, the surviving WAL tail
	// replays without error, and queries answer.
	e2 := New(streamTestConfig())
	defer e2.Close()
	if err := e2.LoadSnapshotFile(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.ReplayWAL(ctx, w); err != nil {
		t.Fatal(err)
	}
	if !e2.Status().Ready {
		t.Fatal("restarted engine not ready")
	}
}

// TestFailedShardSnapshotFailsSave: when one shard's snapshot file cannot be
// written, SaveSnapshotFile reports it instead of treating the shard as "not
// ready yet" — no manifest missing that shard is written (the previous
// generation still loads), and the WAL, which still backs that shard's
// state, is not truncated.
func TestFailedShardSnapshotFailsSave(t *testing.T) {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{SegmentBytes: 4096, Policy: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	newEngine := func() *Engine {
		r, err := shard.NewRouter(2, 8)
		if err != nil {
			t.Fatal(err)
		}
		return NewSharded(streamTestConfig(), r)
	}
	e := newEngine()
	defer e.Close()
	e.AttachWAL(w)
	ctx := context.Background()
	snap := filepath.Join(dir, "snap.json")
	gen := "g1"
	defer func(orig func() string) { snapshotGeneration = orig }(snapshotGeneration)
	snapshotGeneration = func() string { return gen }

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

	// Generation two covers more of the WAL, but shard 1's temp-file path is
	// taken by a directory, so its file cannot be written.
	if err := e.Ingest(ctx, ds.Trips[len(ds.Trips)/2:], nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}
	gen = "g2"
	if err := os.Mkdir(snap+".g2.shard1.tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	segsBefore := walSegments(t, filepath.Join(dir, "wal"))
	if segsBefore < 2 {
		t.Fatalf("need several WAL segments for a truncation to show, got %d", segsBefore)
	}
	if err := e.SaveSnapshotFile(snap); err == nil {
		t.Fatal("SaveSnapshotFile succeeded although shard 1's file could not be written")
	}
	if got := walSegments(t, filepath.Join(dir, "wal")); got != segsBefore {
		t.Fatalf("failed save truncated the WAL: %d segments before, %d after", segsBefore, got)
	}

	// The manifest on disk is still generation one's, and it still loads.
	restored := newEngine()
	defer restored.Close()
	if err := restored.LoadSnapshotFile(snap); err != nil {
		t.Fatalf("previous manifest no longer loads: %v", err)
	}
	if _, src := restored.Query(probe); src == deploy.SourceNone {
		t.Fatal("engine restored from the previous manifest does not answer")
	}
	// The failed save wrote shard 0's generation-two file, but under its
	// own name: the previous manifest restores generation one exactly.
	if got := restored.InferredLocations(); !reflect.DeepEqual(got, genOne) {
		t.Fatalf("previous manifest restored %d answers, generation one served %d (or they differ)", len(got), len(genOne))
	}

	// The next save that succeeds leaves only the files its manifest names.
	if err := os.Remove(snap + ".g2.shard1.tmp"); err != nil {
		t.Fatal(err)
	}
	gen = "g3"
	if err := e.SaveSnapshotFile(snap); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(snap + ".*")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{snap + ".g3.shard0", snap + ".g3.shard1"}; !reflect.DeepEqual(left, want) {
		t.Fatalf("files next to the manifest after a good save: %v, want %v", left, want)
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
