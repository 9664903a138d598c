package traj

import "dlinfma/internal/geo"

// StayPoint is a maximal sub-trajectory during which the courier stayed
// within DMax meters of the segment's first fix for at least TMin seconds
// (Definition 4). Its location is the spatial centroid of the member fixes
// and its representative time is the middle of its interval.
type StayPoint struct {
	Loc     geo.Point
	ArriveT float64 // time of the first member fix
	LeaveT  float64 // time of the last member fix
	NPoints int     // number of member fixes
}

// MidT returns the stay point's representative time: the midpoint of its
// interval, as Definition 4 prescribes.
func (sp StayPoint) MidT() float64 { return (sp.ArriveT + sp.LeaveT) / 2 }

// Duration returns the stay duration in seconds.
func (sp StayPoint) Duration() float64 { return sp.LeaveT - sp.ArriveT }

// StayPointConfig holds the two thresholds of Definition 4.
type StayPointConfig struct {
	DMax float64 // meters
	TMin float64 // seconds
}

// DefaultStayPointConfig returns the paper's thresholds: D_max = 20 m,
// T_min = 30 s (Section III-A, following ref [5]).
func DefaultStayPointConfig() StayPointConfig {
	return StayPointConfig{DMax: 20, TMin: 30}
}

// ExtractStayPoints runs the full stay-point extraction step of the paper's
// Location Candidate Generation component, noise filtering followed by stay
// point detection, over one trip: it pushes every fix of tr through a
// StreamExtractor and flushes it, so batch and streamed ingest share one
// implementation of both stages.
func ExtractStayPoints(tr Trajectory, nf NoiseFilterConfig, sp StayPointConfig) []StayPoint {
	x := NewStreamExtractor(nf, sp)
	var out []StayPoint
	for _, p := range tr {
		out = append(out, x.Push(p)...)
	}
	return append(out, x.Flush()...)
}
