package main

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dlinfma/internal/geo"
	"dlinfma/internal/traj"
)

// walk builds a trajectory that moves from a toward b at the given speed,
// sampled every dt seconds starting at t0.
func walk(a, b geo.Point, speed, dt, t0 float64) traj.Trajectory {
	d := geo.Dist(a, b)
	if d == 0 {
		return traj.Trajectory{{P: a, T: t0}}
	}
	steps := int(d/(speed*dt)) + 1
	var tr traj.Trajectory
	for i := 0; i <= steps; i++ {
		f := float64(i) / float64(steps)
		tr = append(tr, traj.GPSPoint{
			P: geo.Point{X: a.X + f*(b.X-a.X), Y: a.Y + f*(b.Y-a.Y)},
			T: t0 + float64(i)*dt,
		})
	}
	return tr
}

func TestSimplifyStraightLine(t *testing.T) {
	tr := walk(geo.Point{X: 0, Y: 0}, geo.Point{X: 1000, Y: 0}, 5, 10, 0)
	got := Simplify(tr, 5)
	if len(got) != 2 {
		t.Errorf("straight line simplified to %d points, want 2", len(got))
	}
	if got[0] != tr[0] || got[len(got)-1] != tr[len(tr)-1] {
		t.Error("endpoints not preserved")
	}
}

func TestSimplifyKeepsCorners(t *testing.T) {
	a := walk(geo.Point{X: 0, Y: 0}, geo.Point{X: 500, Y: 0}, 5, 10, 0)
	b := walk(geo.Point{X: 500, Y: 0}, geo.Point{X: 500, Y: 500}, 5, 10, a[len(a)-1].T+10)
	tr := append(a, b...)
	got := Simplify(tr, 5)
	if len(got) < 3 {
		t.Fatalf("corner lost: %d points", len(got))
	}
	// Some kept point is near the corner.
	found := false
	for _, p := range got {
		if geo.Dist(p.P, geo.Point{X: 500, Y: 0}) < 10 {
			found = true
		}
	}
	if !found {
		t.Error("no kept point near the corner")
	}
}

func TestSimplifyErrorBoundProperty(t *testing.T) {
	// Every dropped point must lie within tol of the simplified polyline.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var tr traj.Trajectory
		pos := geo.Point{}
		tm := 0.0
		for i := 0; i < 80; i++ {
			pos = pos.Add(geo.Point{X: r.NormFloat64() * 20, Y: r.NormFloat64() * 20})
			tm += 10
			tr = append(tr, traj.GPSPoint{P: pos, T: tm})
		}
		const tol = 15.0
		simp := Simplify(tr, tol)
		for _, p := range tr {
			best := 1e18
			for i := 1; i < len(simp); i++ {
				if d := pointSegmentDist(p.P, simp[i-1].P, simp[i].P); d < best {
					best = d
				}
			}
			if best > tol+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSimplifyDegenerate(t *testing.T) {
	short := traj.Trajectory{{T: 0}, {T: 1}}
	if got := Simplify(short, 5); len(got) != 2 {
		t.Error("two points must pass through")
	}
	// Zero tolerance: identity.
	tr := walk(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 0}, 5, 10, 0)
	if got := Simplify(tr, 0); len(got) != len(tr) {
		t.Error("tol=0 must keep everything")
	}
	// Coincident endpoints exercise the zero-length-segment branch.
	loop := traj.Trajectory{
		{P: geo.Point{X: 0, Y: 0}, T: 0},
		{P: geo.Point{X: 50, Y: 50}, T: 10},
		{P: geo.Point{X: 0, Y: 0}, T: 20},
	}
	got := Simplify(loop, 5)
	if len(got) != 3 {
		t.Errorf("loop apex lost: %d points", len(got))
	}
}
