package ststore

import (
	"math/rand"
	"sync"
	"testing"

	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/synth"
	"dlinfma/internal/traj"
)

func lineTraj(t0 float64, pts ...geo.Point) traj.Trajectory {
	var tr traj.Trajectory
	for i, p := range pts {
		tr = append(tr, traj.GPSPoint{P: p, T: t0 + float64(i)*10})
	}
	return tr
}

func TestAddAndRetrieve(t *testing.T) {
	s := New(50, 600)
	tr := lineTraj(0, geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 0}, geo.Point{X: 200, Y: 0})
	id := s.AddTrajectory(3, tr)
	got, ok := s.Trajectory(id)
	if !ok || len(got) != 3 {
		t.Fatalf("Trajectory: %v %v", got, ok)
	}
	if _, ok := s.Trajectory(99); ok {
		t.Error("unknown id found")
	}
	if _, ok := s.Trajectory(-1); ok {
		t.Error("negative id found")
	}
	if s.Len() != 1 || s.Points() != 3 {
		t.Errorf("Len=%d Points=%d", s.Len(), s.Points())
	}
}

func TestQueryWindow(t *testing.T) {
	s := New(50, 600)
	// Two trajectories crossing a region at different times.
	s.AddTrajectory(0, lineTraj(0, geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 100}, geo.Point{X: 200, Y: 200}))
	s.AddTrajectory(1, lineTraj(5000, geo.Point{X: 100, Y: 100}, geo.Point{X: 300, Y: 300}))

	// Window around (100,100) at early times: only the first trajectory.
	r := geo.NewRect(geo.Point{X: 80, Y: 80}, geo.Point{X: 120, Y: 120})
	refs := s.QueryWindow(r, 0, 1000)
	if len(refs) != 1 || refs[0].Traj != 0 || refs[0].Index != 1 {
		t.Fatalf("refs = %v", refs)
	}
	// Same window, late times: only the second.
	refs = s.QueryWindow(r, 4000, 6000)
	if len(refs) != 1 || refs[0].Traj != 1 {
		t.Fatalf("late refs = %v", refs)
	}
	// Inverted time range.
	if refs := s.QueryWindow(r, 10, 0); refs != nil {
		t.Error("inverted range should be empty")
	}
}

func TestQueryWindowMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(80, 500)
	var all []struct {
		ref PointRef
		p   traj.GPSPoint
	}
	for id := 0; id < 10; id++ {
		var tr traj.Trajectory
		tm := rng.Float64() * 5000
		for i := 0; i < 50; i++ {
			tm += 5 + rng.Float64()*20
			tr = append(tr, traj.GPSPoint{
				P: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
				T: tm,
			})
		}
		tid := s.AddTrajectory(model.CourierID(id%3), tr)
		for i, p := range tr {
			all = append(all, struct {
				ref PointRef
				p   traj.GPSPoint
			}{PointRef{tid, i}, p})
		}
	}
	for trial := 0; trial < 30; trial++ {
		r := geo.NewRect(
			geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
		)
		t0 := rng.Float64() * 6000
		t1 := t0 + rng.Float64()*2000
		got := s.QueryWindow(r, t0, t1)
		want := 0
		for _, e := range all {
			if e.p.T >= t0 && e.p.T <= t1 && r.Contains(e.p.P) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("trial %d: got %d refs, want %d", trial, len(got), want)
		}
	}
}

func TestVisitingCouriers(t *testing.T) {
	s := New(50, 600)
	s.AddTrajectory(2, lineTraj(0, geo.Point{X: 10, Y: 10}))
	s.AddTrajectory(5, lineTraj(100, geo.Point{X: 12, Y: 12}))
	s.AddTrajectory(2, lineTraj(200, geo.Point{X: 14, Y: 14}))
	s.AddTrajectory(9, lineTraj(0, geo.Point{X: 900, Y: 900}))
	cs := s.VisitingCouriers(geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 50, Y: 50}), 0, 1000)
	if len(cs) != 2 || cs[0] != 2 || cs[1] != 5 {
		t.Errorf("couriers = %v, want [2 5]", cs)
	}
}

func TestIngestDataset(t *testing.T) {
	ds, _, err := synth.GenerateClean(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	s := New(100, 3600)
	ids := s.IngestDataset(ds)
	if len(ids) != len(ds.Trips) {
		t.Fatalf("ingested %d trips, want %d", len(ids), len(ds.Trips))
	}
	if s.Points() != ds.TrajectoryPoints() {
		t.Errorf("Points = %d, want %d", s.Points(), ds.TrajectoryPoints())
	}
	for i, tr := range ds.Trips {
		got, ok := s.Trajectory(ids[i])
		if !ok || len(got) != len(tr.Traj) || (len(got) > 0 && &got[0] != &tr.Traj[0]) {
			t.Fatalf("trip %d is not stored under its id", i)
		}
	}
}

func TestConcurrentReadsAndWrites(t *testing.T) {
	s := New(50, 600)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 50; i++ {
				tr := lineTraj(float64(i)*100, geo.Point{X: rng.Float64() * 500, Y: rng.Float64() * 500})
				id := s.AddTrajectory(model.CourierID(g), tr)
				s.QueryWindow(geo.Rect{MinX: 0, MinY: 0, MaxX: 500, MaxY: 500}, 0, 1e6)
				s.Trajectory(id)
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 300 {
		t.Errorf("Len = %d, want 300", s.Len())
	}
}

func TestDefaults(t *testing.T) {
	s := New(0, 0)
	if s.cell != 100 || s.timeBucket != 3600 {
		t.Errorf("defaults: cell=%v bucket=%v", s.cell, s.timeBucket)
	}
}
