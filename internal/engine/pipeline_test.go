package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dlinfma/internal/core"
	"dlinfma/internal/deploy"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/traj"
	"dlinfma/internal/wal"
)

// TestPipelinedPoolsMatchSynchronousBuilder: windows are cut on the ingest
// path and clustered by each shard's sealer beside it, and every pool must
// still be the one a core.IncrementalPoolBuilder builds when it is fed the
// same trips and seals the same windows on the spot. The stream's bursts cut
// windows on the grid (a trip starting a pool window later) and on the stay
// bound, several to a burst, with Reinfer (a cut of its own) and Status in
// between; each shard's pool is read through view, which waits for the
// window in flight, right after a burst or a Reinfer. A ReplayWAL of
// the log into a fresh engine must end with the same pools, and after Close
// no sealer goroutine may be left.
func TestPipelinedPoolsMatchSynchronousBuilder(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { testPipelinedPools(t, n) })
	}
}

// pipelineMaxStays is the stay bound of the pipeline test's engines: a
// window long enough that its seal is still running when the next burst or
// view arrives, and short enough that a long burst cuts several.
const pipelineMaxStays = 200

func testPipelinedPools(t *testing.T, n int) {
	goroutines := runtime.NumGoroutine()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(int64(50 + n)))
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Policy: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	e := newBurstTestEngine(t, n)
	e.ss.maxStays = pipelineMaxStays
	e.AttachWAL(w)
	cfg := e.cfg.Core

	// The synchronous reference: the engine's routing and cut rules, with
	// every seal done before the next trip arrives.
	refs := make([]*core.IncrementalPoolBuilder, n)
	for i := range refs {
		refs[i] = core.NewIncrementalPoolBuilder(cfg)
	}
	var winEnd float64
	winStays, cuts, delivered := 0, 0, 0
	took := make([]int, n)
	sealAll := func() {
		for _, b := range refs {
			if err := b.SealWindow(ctx); err != nil {
				t.Fatal(err)
			}
		}
		winStays = 0
	}
	deliver := func(tr model.Trip) {
		stays := traj.ExtractStayPoints(tr.Traj, cfg.Noise, cfg.Stay)
		var cut bool
		if winEnd, cut = core.NextWindow(winEnd, tr.StartT, cfg.PoolWindowSeconds); cut {
			sealAll()
			cuts++
		}
		sh := 0
		if e.routed() {
			sh = e.router.TripShard(tr)
		}
		refs[sh].AppendTripStays(tr.Courier, stays)
		took[sh]++
		delivered++
		if winStays += len(stays); winStays >= pipelineMaxStays {
			sealAll()
			cuts++
		}
	}

	// Sites in three regions far enough apart for every shard to take trips.
	var sites []geo.Point
	for _, c := range []geo.Point{{X: 0, Y: 0}, {X: 90000, Y: 20000}, {X: 30000, Y: 120000}} {
		for i := 0; i < 12; i++ {
			sites = append(sites, geo.Point{X: c.X + rng.Float64()*3000, Y: c.Y + rng.Float64()*3000})
		}
	}
	region := func() []geo.Point { r := rng.Intn(3) * 12; return sites[r : r+12] }
	clock := 0.0
	nextTrip := func(jump bool) model.Trip {
		if jump || rng.Intn(40) == 0 {
			clock += cfg.PoolWindowSeconds // the next trip starts past the grid
		}
		rs := region()
		stops := make([]geo.Point, 2+rng.Intn(7))
		for i := range stops {
			stops[i] = rs[rng.Intn(len(rs))]
		}
		tr := genTrip(rng, model.CourierID(1+rng.Intn(6)), clock, stops...)
		clock = tr.EndT + 60
		return tr
	}

	requirePools := func(e *Engine, when string) {
		t.Helper()
		for i, ref := range refs {
			want := ref.Finalize()
			ds, got, nTrips, err := e.shards[i].ev.view(ctx)
			if len(want.Visits) == 0 {
				if !errors.Is(err, errNoTrips) {
					t.Fatalf("%s: shard %d: view of no sealed trips: err = %v, want errNoTrips", when, i, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: shard %d: %v", when, i, err)
			}
			if nTrips != len(want.Visits) || len(ds.Trips) != nTrips {
				t.Fatalf("%s: shard %d: view covers %d trips (%d in its dataset), the reference %d",
					when, i, nTrips, len(ds.Trips), len(want.Visits))
			}
			if !reflect.DeepEqual(want.Locations, got.Locations) || !reflect.DeepEqual(want.Visits, got.Visits) {
				t.Fatalf("%s: shard %d: pool differs from the synchronous builder's (%d vs %d locations)",
					when, i, len(want.Locations), len(got.Locations))
			}
		}
	}

	for round := 0; round < 30; round++ {
		// check 0 reads the pools after a Reinfer, check 1 after a burst
		// whose last trip starts past the grid: a cut just before the burst
		// returns, of a window of up to pipelineMaxStays stays.
		check := rng.Intn(4)
		var ops []deploy.StreamOp
		for k := 1 + rng.Intn(80); k > 0; k-- {
			tr := nextTrip(check == 1 && k == 1)
			for _, p := range tr.Traj {
				ops = append(ops, deploy.StreamOp{Courier: tr.Courier, Pt: p})
			}
			ops = append(ops, deploy.StreamOp{Courier: tr.Courier, End: true})
			deliver(tr)
		}
		if applied, err := e.IngestBurst(ctx, ops); err != nil || applied != len(ops) {
			t.Fatalf("round %d: IngestBurst applied %d of %d: %v", round, applied, len(ops), err)
		}
		if st := e.Status(); st.Trips != delivered || st.PendingTrips != delivered {
			t.Fatalf("round %d: status says %d trips, %d pending; want %d", round, st.Trips, st.PendingTrips, delivered)
		}
		switch check {
		case 0:
			// Only the cut matters: streamed trips carry no waybills, so
			// there is nothing to fit and the re-inference fails after it.
			_ = e.Reinfer(ctx)
			sealAll()
			requirePools(e, fmt.Sprintf("round %d, after Reinfer", round))
		case 1:
			requirePools(e, fmt.Sprintf("round %d, after the burst", round))
		}
	}
	if cuts < 10 {
		t.Fatalf("the stream cut %d windows on the grid and stay bound, want at least 10", cuts)
	}
	for i, k := range took {
		if k == 0 {
			t.Fatalf("shard %d took no trips", i)
		}
	}
	// The last trips stay in the open window: the log's replay must seal
	// every window it cuts and leave those out, as the live engine does.
	requirePools(e, "end of stream")
	e.Close()

	recovered := newBurstTestEngine(t, n)
	recovered.ss.maxStays = pipelineMaxStays
	if _, err := recovered.ReplayWAL(ctx, w); err != nil {
		t.Fatal(err)
	}
	requirePools(recovered, "after ReplayWAL")
	recovered.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the engines were made", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
}
