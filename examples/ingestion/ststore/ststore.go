// Package ststore is a compact spatio-temporal data engine standing in for
// JUST, the platform the deployed system uses to store and query couriers'
// raw trajectories (Section VI-A, Figure 14). It offers bulk ingestion and
// spatio-temporal window queries over an in-memory grid/time index. Reads
// and writes are safe for concurrent use.
package ststore

import (
	"math"
	"sort"
	"sync"

	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/traj"
)

// TrajectoryID identifies an ingested trajectory.
type TrajectoryID int32

// PointRef addresses one GPS fix inside a stored trajectory.
type PointRef struct {
	Traj  TrajectoryID
	Index int
}

// Store is the engine. The zero value is not usable; call New.
type Store struct {
	mu sync.RWMutex

	cell       float64
	timeBucket float64

	trajs    []traj.Trajectory
	couriers []model.CourierID
	index    map[[3]int32][]PointRef
}

// New returns an empty store with the given spatial cell size (meters) and
// time bucket (seconds) for the window index. 100 m / 1 h are sensible
// defaults for delivery workloads; non-positive arguments select them.
func New(cellSize, timeBucket float64) *Store {
	if cellSize <= 0 {
		cellSize = 100
	}
	if timeBucket <= 0 {
		timeBucket = 3600
	}
	return &Store{
		cell:       cellSize,
		timeBucket: timeBucket,
		index:      make(map[[3]int32][]PointRef),
	}
}

func (s *Store) key(p geo.Point, t float64) [3]int32 {
	return [3]int32{
		int32(math.Floor(p.X / s.cell)),
		int32(math.Floor(p.Y / s.cell)),
		int32(math.Floor(t / s.timeBucket)),
	}
}

// AddTrajectory ingests a trajectory and returns its id. The trajectory must
// be time-ordered; the slice is retained (not copied).
func (s *Store) AddTrajectory(courier model.CourierID, tr traj.Trajectory) TrajectoryID {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := TrajectoryID(len(s.trajs))
	s.trajs = append(s.trajs, tr)
	s.couriers = append(s.couriers, courier)
	for i, p := range tr {
		k := s.key(p.P, p.T)
		s.index[k] = append(s.index[k], PointRef{Traj: id, Index: i})
	}
	return id
}

// Len returns the number of stored trajectories.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.trajs)
}

// Points returns the total number of stored GPS fixes.
func (s *Store) Points() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, tr := range s.trajs {
		n += len(tr)
	}
	return n
}

// Trajectory returns the stored trajectory with the given id (shared
// storage; callers must not mutate).
func (s *Store) Trajectory(id TrajectoryID) (traj.Trajectory, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id < 0 || int(id) >= len(s.trajs) {
		return nil, false
	}
	return s.trajs[id], true
}

// QueryWindow returns references to every stored fix inside the spatial
// rectangle during [t0, t1], ordered by (trajectory, index).
func (s *Store) QueryWindow(r geo.Rect, t0, t1 float64) []PointRef {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t1 < t0 {
		return nil
	}
	var out []PointRef
	x0 := int32(math.Floor(r.MinX / s.cell))
	x1 := int32(math.Floor(r.MaxX / s.cell))
	y0 := int32(math.Floor(r.MinY / s.cell))
	y1 := int32(math.Floor(r.MaxY / s.cell))
	b0 := int32(math.Floor(t0 / s.timeBucket))
	b1 := int32(math.Floor(t1 / s.timeBucket))
	for cx := x0; cx <= x1; cx++ {
		for cy := y0; cy <= y1; cy++ {
			for bt := b0; bt <= b1; bt++ {
				for _, ref := range s.index[[3]int32{cx, cy, bt}] {
					p := s.trajs[ref.Traj][ref.Index]
					if p.T >= t0 && p.T <= t1 && r.Contains(p.P) {
						out = append(out, ref)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Traj != out[j].Traj {
			return out[i].Traj < out[j].Traj
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// VisitingCouriers returns the distinct couriers with at least one fix in
// the window, sorted.
func (s *Store) VisitingCouriers(r geo.Rect, t0, t1 float64) []model.CourierID {
	refs := s.QueryWindow(r, t0, t1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := make(map[model.CourierID]bool)
	for _, ref := range refs {
		seen[s.couriers[ref.Traj]] = true
	}
	out := make([]model.CourierID, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IngestDataset bulk-loads a dataset's trips. It returns the trajectory ids
// in trip order.
func (s *Store) IngestDataset(ds *model.Dataset) []TrajectoryID {
	ids := make([]TrajectoryID, len(ds.Trips))
	for i, tr := range ds.Trips {
		ids[i] = s.AddTrajectory(tr.Courier, tr.Traj)
	}
	return ids
}
