package main

import (
	"dlinfma/internal/geo"
	"dlinfma/internal/traj"
)

// Simplify reduces a trajectory with the Douglas-Peucker algorithm under a
// spatial tolerance in meters, always keeping the endpoints. Timestamps are
// preserved on the kept points. Used to compress archived trajectories in
// the storage layer without disturbing stay-point geometry beyond tol.
func Simplify(tr traj.Trajectory, tol float64) traj.Trajectory {
	if len(tr) <= 2 || tol <= 0 {
		return tr
	}
	keep := make([]bool, len(tr))
	keep[0], keep[len(tr)-1] = true, true
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		if hi-lo < 2 {
			return
		}
		maxD, maxI := -1.0, -1
		for i := lo + 1; i < hi; i++ {
			if d := pointSegmentDist(tr[i].P, tr[lo].P, tr[hi].P); d > maxD {
				maxD, maxI = d, i
			}
		}
		if maxD > tol {
			keep[maxI] = true
			rec(lo, maxI)
			rec(maxI, hi)
		}
	}
	rec(0, len(tr)-1)
	out := make(traj.Trajectory, 0, len(tr)/2)
	for i, k := range keep {
		if k {
			out = append(out, tr[i])
		}
	}
	return out
}

// pointSegmentDist returns the distance from p to segment ab.
func pointSegmentDist(p, a, b geo.Point) float64 {
	abx, aby := b.X-a.X, b.Y-a.Y
	l2 := abx*abx + aby*aby
	if l2 == 0 {
		return geo.Dist(p, a)
	}
	t := ((p.X-a.X)*abx + (p.Y-a.Y)*aby) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	proj := geo.Point{X: a.X + t*abx, Y: a.Y + t*aby}
	return geo.Dist(p, proj)
}
