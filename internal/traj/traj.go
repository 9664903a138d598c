// Package traj implements courier trajectory handling: the trajectory type,
// the heuristics-based GPS noise filter, and stay-point detection
// (Definition 4 of the paper, with the paper's defaults D_max = 20 m and
// T_min = 30 s).
package traj

import (
	"sort"

	"dlinfma/internal/geo"
)

// GPSPoint is one spatio-temporal fix of a courier.
type GPSPoint struct {
	P geo.Point
	T float64 // seconds since the dataset epoch
}

// Trajectory is a chronologically ordered sequence of GPS points.
type Trajectory []GPSPoint

// At returns the interpolated position of the courier at time t. Times
// outside the trajectory clamp to the first/last fix. It returns the zero
// point for an empty trajectory.
func (tr Trajectory) At(t float64) geo.Point {
	if len(tr) == 0 {
		return geo.Point{}
	}
	if t <= tr[0].T {
		return tr[0].P
	}
	if t >= tr[len(tr)-1].T {
		return tr[len(tr)-1].P
	}
	i := sort.Search(len(tr), func(i int) bool { return tr[i].T >= t })
	a, b := tr[i-1], tr[i]
	if b.T == a.T {
		return b.P
	}
	f := (t - a.T) / (b.T - a.T)
	return geo.Point{
		X: a.P.X + f*(b.P.X-a.P.X),
		Y: a.P.Y + f*(b.P.Y-a.P.Y),
	}
}
