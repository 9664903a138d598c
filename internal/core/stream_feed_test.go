package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/traj"
)

// streamTripStays runs a trip's trajectory through the incremental
// StreamExtractor, the way the serving engine does point by point.
func streamTripStays(tr traj.Trajectory, cfg Config) []traj.StayPoint {
	x := traj.NewStreamExtractor(cfg.Noise, cfg.Stay)
	var out []traj.StayPoint
	for _, p := range tr {
		out = append(out, x.Push(p)...)
	}
	return append(out, x.Flush()...)
}

// TestStreamedFeedMatchesBatchWindows is the core half of the streaming
// bit-identity contract: appending each trip's streamed stay points and
// sealing at the same window boundaries must produce the same pool as the
// batch path's windows (ExtractAllStayPoints, then append and seal) — same
// locations, same visit logs, same ids.
func TestStreamedFeedMatchesBatchWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sites := []geo.Point{{X: 100, Y: 100}, {X: 130, Y: 100}, {X: 500, Y: 400}, {X: 90, Y: 420}}
	var windows [][]model.Trip
	t0 := 0.0
	for w := 0; w < 3; w++ {
		var trips []model.Trip
		for c := 0; c < 4; c++ {
			a := sites[rng.Intn(len(sites))]
			b := sites[rng.Intn(len(sites))]
			trips = append(trips, dwellTrip(rng, model.CourierID(c), t0, a, b))
			t0 += 400
		}
		windows = append(windows, trips)
		t0 += 14 * 86400
	}

	cfg := DefaultConfig()
	cfg.Workers = 1

	batch := NewIncrementalPoolBuilder(cfg)
	for _, w := range windows {
		addWindow(t, batch, w)
	}
	streamed := NewIncrementalPoolBuilder(cfg)
	for _, w := range windows {
		for _, trip := range w {
			streamed.AppendTripStays(trip.Courier, streamTripStays(trip.Traj, cfg))
		}
		if err := streamed.SealWindow(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	pb, ps := batch.Finalize(), streamed.Finalize()
	if !reflect.DeepEqual(pb.Locations, ps.Locations) {
		t.Fatalf("location pools differ\nbatch:    %+v\nstreamed: %+v", pb.Locations, ps.Locations)
	}
	if !reflect.DeepEqual(pb.Visits, ps.Visits) {
		t.Fatalf("visit logs differ\nbatch:    %+v\nstreamed: %+v", pb.Visits, ps.Visits)
	}
}

// TestFinalizeLeavesPendingOut checks that Finalize covers sealed trips
// only: an appended trip stays pending, with no visit list in the pool, until
// SealWindow cuts its window — cutting a window is never the finalizer's call.
func TestFinalizeLeavesPendingOut(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cfg := DefaultConfig()
	b := NewIncrementalPoolBuilder(cfg)
	trip := dwellTrip(rng, 0, 0, geo.Point{X: 60, Y: 60})
	b.AppendTripStays(trip.Courier, streamTripStays(trip.Traj, cfg))
	if b.PendingTrips() != 1 {
		t.Fatalf("PendingTrips = %d, want 1", b.PendingTrips())
	}
	pool := b.Finalize()
	if b.PendingTrips() != 1 {
		t.Fatalf("PendingTrips after Finalize = %d, want 1", b.PendingTrips())
	}
	if len(pool.Locations) != 0 || len(pool.Visits) != 0 {
		t.Fatalf("pending trip in the pool: %d locations, %d visit lists",
			len(pool.Locations), len(pool.Visits))
	}
	if err := b.SealWindow(context.Background()); err != nil {
		t.Fatal(err)
	}
	pool = b.Finalize()
	if b.PendingTrips() != 0 {
		t.Fatalf("PendingTrips after SealWindow = %d, want 0", b.PendingTrips())
	}
	if len(pool.Locations) != 1 || len(pool.Visits) != 1 || len(pool.Visits[0]) == 0 {
		t.Fatalf("sealed trip missing from pool: %d locations, %d visit lists",
			len(pool.Locations), len(pool.Visits))
	}
}
