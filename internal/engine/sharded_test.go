package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"dlinfma/internal/core"
	"dlinfma/internal/deploy"
	"dlinfma/internal/engine"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/obs"
	"dlinfma/internal/peer"
	"dlinfma/internal/shard"
	"dlinfma/internal/traj"
)

// TestShardedFailedShardIsolation: a shard whose region has trips but no
// labelled addresses fails its retrain; the other shard still swaps and
// serves, and the error names the failed shard.
func TestShardedFailedShardIsolation(t *testing.T) {
	ds, _ := tinyEngine(t)
	// Clone the dataset keeping truth only for even addresses; route even
	// addresses to shard 0 and odd to shard 1, so shard 1 trains labelless.
	ds2 := &model.Dataset{
		Name:      ds.Name,
		Trips:     ds.Trips,
		Addresses: ds.Addresses,
		Truth:     make(map[model.AddressID]geo.Point),
	}
	for id, p := range ds.Truth {
		if id%2 == 0 {
			ds2.Truth[id] = p
		}
	}
	r := testRouter(t, 2)
	r.AssignAddress = func(a model.AddressInfo) int { return int(a.ID) % 2 }
	s := engine.NewSharded(quickConfig(), r)
	defer s.Close()
	if err := s.IngestDataset(context.Background(), ds2); err != nil {
		t.Fatal(err)
	}

	err := s.Reinfer(context.Background())
	if err == nil {
		t.Fatal("labelless shard did not fail")
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("error does not name the failed shard: %v", err)
	}
	st := s.Status()
	if !st.Ready {
		t.Fatal("healthy shard's swap was lost to the other shard's failure")
	}
	if st.Reinfers != 1 {
		t.Errorf("Reinfers = %d, want 1", st.Reinfers)
	}
	if !st.Shards[0].Ready || st.Shards[1].Ready {
		t.Errorf("per-shard readiness: %v/%v, want true/false",
			st.Shards[0].Ready, st.Shards[1].Ready)
	}
	// Shard 0's region answers; shard 1's region degrades to no answer.
	even, odd := 0, 0
	for _, a := range ds.Addresses {
		_, src := s.Query(a.ID)
		if a.ID%2 == 0 && src != deploy.SourceNone {
			even++
		}
		if a.ID%2 == 1 && src != deploy.SourceNone {
			odd++
		}
	}
	if even == 0 {
		t.Error("healthy shard serves nothing")
	}
	if odd != 0 {
		t.Errorf("failed shard answered %d queries from a swap that never happened", odd)
	}
}

// TestShardedBoundaryStays: an address whose delivery stay straddles a
// geohash cell edge (fixes alternate across lng 0, the top-level cell split)
// still gets its full trajectory evidence: the router assigns the trip by
// the waybill address's key, never by individual trajectory points, even
// when the trajectory midpoint falls in another shard's cell.
func TestShardedBoundaryStays(t *testing.T) {
	const addrID model.AddressID = 7
	addr := model.AddressInfo{ID: addrID, Building: 1, Geocode: geo.Point{X: -150, Y: 0}}
	truth := map[model.AddressID]geo.Point{addrID: {X: 0, Y: 0}}

	// One delivery stay: 12 fixes alternating 8 m west / 8 m east of x=0
	// (16 m jumps stay inside D_max=20 m of the anchor, 55 s > T_min=30 s),
	// then a run east so the trajectory midpoint lands well inside the
	// eastern cell.
	mkTrip := func(t0 float64) model.Trip {
		var tr traj.Trajectory
		for i := 0; i < 12; i++ {
			x := -8.0
			if i%2 == 1 {
				x = 8.0
			}
			tr = append(tr, traj.GPSPoint{P: geo.Point{X: x, Y: 0}, T: t0 + float64(i*5)})
		}
		for i := 0; i < 12; i++ {
			tr = append(tr, traj.GPSPoint{P: geo.Point{X: 60 + float64(i)*40, Y: 0}, T: t0 + 60 + float64(i*5)})
		}
		return model.Trip{
			Courier: 1,
			StartT:  t0,
			EndT:    t0 + 120,
			Traj:    tr,
			Waybills: []model.Waybill{{
				Addr:              addrID,
				ReceivedT:         t0,
				RecordedDeliveryT: t0 + 100,
				ActualDeliveryT:   t0 + 55,
			}},
		}
	}
	ds := &model.Dataset{
		Name:      "boundary",
		Trips:     []model.Trip{mkTrip(0), mkTrip(3600), mkTrip(7200)},
		Addresses: []model.AddressInfo{addr},
		Truth:     truth,
	}

	// Pick a shard count where the address's cell and the trajectory
	// midpoint's cell land on different shards, so per-point routing would
	// demonstrably lose the trip.
	var r *shard.Router
	var home, away int
	for n := 2; n <= 8; n++ {
		cand := testRouter(t, n)
		home = cand.AddressShard(addr)
		away = cand.TripShard(ds.Trips[0])
		if home != away {
			r = cand
			break
		}
	}
	if r == nil {
		t.Fatal("no shard count separates the address cell from the trip midpoint cell")
	}

	s := engine.NewSharded(quickConfig(), r)
	defer s.Close()
	if err := s.IngestDataset(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if got := st.Shards[home].PendingTrips; got != len(ds.Trips) {
		t.Fatalf("address shard %d holds %d trips, want %d", home, got, len(ds.Trips))
	}
	if got := st.Shards[away].PendingTrips; got != 0 {
		t.Fatalf("midpoint shard %d stole %d trips", away, got)
	}

	// The home shard's pipeline retrieves the straddling stay as a candidate
	// within clustering distance of the true drop-off at the cell edge.
	parts := core.PartitionDataset(ds, r.N(), r.AddressShard, r.TripShard)
	pipe, err := core.NewPipeline(context.Background(), parts[home], quickConfig().Core)
	if err != nil {
		t.Fatal(err)
	}
	cands := pipe.RetrieveCandidates(addrID)
	if len(cands) == 0 {
		t.Fatal("no candidates for the boundary address on its home shard")
	}
	best := math.Inf(1)
	for _, c := range cands {
		if d := geo.Dist(pipe.Pool.Locations[c].Loc, truth[addrID]); d < best {
			best = d
		}
	}
	if best > 20 {
		t.Errorf("nearest candidate %.1f m from the boundary stay centroid", best)
	}

	if err := s.Reinfer(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, src := s.Query(addrID); src == deploy.SourceNone {
		t.Error("boundary address unanswered after re-inference")
	}
}

// TestShardedLegacyMigration: a version-1 snapshot written by a one-shard
// engine restores into several shards by routing its addresses across them;
// every previously served answer survives.
func TestShardedLegacyMigration(t *testing.T) {
	ds, e := tinyEngine(t)
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s := engine.NewSharded(quickConfig(), testRouter(t, 3))
	defer s.Close()
	if err := s.RestoreSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if !st.Ready {
		t.Fatal("not ready after legacy migration")
	}
	orig := e.InferredLocations()
	for id, p := range orig {
		got, src := s.Query(id)
		if src == deploy.SourceNone || got != p {
			t.Fatalf("address %d: %v/%v after migration, want %v", id, got, src, p)
		}
	}
	spread := 0
	for _, sh := range st.Shards {
		if sh.Inferred > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Errorf("migration put all state on %d shard(s)", spread)
	}
	_ = ds
}

// snapshotStub is a shard backend whose only behaviour is WriteSnapshot.
type snapshotStub struct {
	peer.ShardBackend
	doc string
	err error
}

func (s snapshotStub) WriteSnapshot(w io.Writer) error {
	if s.err != nil {
		return s.err
	}
	_, err := io.WriteString(w, s.doc)
	return err
}

// TestWriteSnapshotSurfacesShardErrors: the manifest stream skips a shard
// only on peer.ErrNotReady (its entry is null); any other shard error fails
// the snapshot instead of silently dropping that shard's state.
func TestWriteSnapshotSurfacesShardErrors(t *testing.T) {
	ready := snapshotStub{doc: `{"version":1,"name":"stub","addresses":null,"locations":{}}`}
	cold := snapshotStub{err: fmt.Errorf("remote says: %w", peer.ErrNotReady)}
	broken := snapshotStub{err: errors.New("connection reset")}

	e, err := engine.NewShardedBackends(quickConfig(), testRouter(t, 2), []peer.ShardBackend{cold, ready})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"shards":[null,{"version":1,`) {
		t.Fatalf("manifest does not skip exactly the cold shard: %s", buf.String())
	}

	e, err = engine.NewShardedBackends(quickConfig(), testRouter(t, 2), []peer.ShardBackend{broken, ready})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.WriteSnapshot(io.Discard); err == nil || !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("broken shard's error was swallowed: %v", err)
	}

	e, err = engine.NewShardedBackends(quickConfig(), testRouter(t, 2), []peer.ShardBackend{cold, cold})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.WriteSnapshot(io.Discard); !errors.Is(err, peer.ErrNotReady) {
		t.Fatalf("all-cold snapshot: %v, want peer.ErrNotReady", err)
	}
}

// ingestStub is a shard backend that answers every Ingest with *err.
type ingestStub struct {
	peer.ShardBackend
	err *error
}

func (s ingestStub) Ingest(context.Context, []model.Trip, []model.AddressInfo, map[model.AddressID]geo.Point) error {
	return *s.err
}

// shardTripGauges reads dlinfma_engine_ingest_shard_trips for shards 0 and 1
// and dlinfma_engine_ingest_skew from the process-wide registry.
func shardTripGauges(t *testing.T) (per [2]float64, skew float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fams["dlinfma_engine_ingest_shard_trips"].Samples {
		switch s.Labels["shard"] {
		case "0":
			per[0] = s.Value
		case "1":
			per[1] = s.Value
		}
	}
	return per, fams["dlinfma_engine_ingest_skew"].Samples[0].Value
}

// TestShardTripsCountTakenParts: a window's part counts in
// dlinfma_engine_ingest_shard_trips and the skew gauge once its shard has
// taken it. Both stub shards take a first window, which makes both gauges
// this engine's (the registry is process-wide, so they are read as a
// change); in the second window the second shard answers
// deploy.ErrBackpressure, and the gauges move by the first shard's part
// only, as Status().Trips counts only what a shard applied.
func TestShardTripsCountTakenParts(t *testing.T) {
	var err0, err1 error
	r := testRouter(t, 2)
	r.AssignAddress = func(a model.AddressInfo) int { return int(a.ID) % 2 }
	e, err := engine.NewShardedBackends(quickConfig(), r, []peer.ShardBackend{ingestStub{err: &err0}, ingestStub{err: &err1}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	if err := e.Ingest(ctx, nil, []model.AddressInfo{{ID: 0}, {ID: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	// window has n[i] trips delivering to address i, so to shard i.
	window := func(n [2]int) []model.Trip {
		var trips []model.Trip
		for addr, k := range n {
			for range k {
				trips = append(trips, model.Trip{Waybills: []model.Waybill{{Addr: model.AddressID(addr)}}})
			}
		}
		return trips
	}
	if err := e.Ingest(ctx, window([2]int{2, 3}), nil, nil); err != nil {
		t.Fatal(err)
	}
	before, _ := shardTripGauges(t)
	err1 = deploy.ErrBackpressure
	if err := e.Ingest(ctx, window([2]int{4, 5}), nil, nil); !errors.Is(err, deploy.ErrBackpressure) {
		t.Fatalf("second window: %v, want the second shard's backpressure", err)
	}
	after, skew := shardTripGauges(t)
	if d := [2]float64{after[0] - before[0], after[1] - before[1]}; d != [2]float64{4, 0} {
		t.Fatalf("dlinfma_engine_ingest_shard_trips moved %v, want [4 0]: the rejected part counted", d)
	}
	if want := max(after[0], after[1]) / ((after[0] + after[1]) / 2); math.Abs(skew-want) > 1e-12 {
		t.Fatalf("dlinfma_engine_ingest_skew = %g, want %g (max over mean of %v)", skew, want, after)
	}
}
