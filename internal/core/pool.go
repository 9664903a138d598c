// Package core implements the paper's contribution, DLInfMA: location
// candidate generation (stay-point extraction, candidate-pool construction
// by centroid-linkage hierarchical clustering, temporal-upper-bound
// candidate retrieval), feature extraction (matching, profile and address
// features), and the LocMatcher attention model that selects the delivery
// location among all candidates of an address jointly.
package core

import (
	"context"
	"runtime"

	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/nn"
	"dlinfma/internal/traj"
)

// Config holds the pipeline's hyper-parameters with the paper's defaults.
type Config struct {
	// Noise filtering and stay-point detection (Section III-A).
	Noise traj.NoiseFilterConfig
	Stay  traj.StayPointConfig
	// ClusterDistance is the hierarchical-clustering cutoff D (Section
	// III-B; 40 m at the paper's Figure 10(a) optimum).
	ClusterDistance float64
	// PoolWindowSeconds is the length of one pool-maintenance window
	// (Section V-F): trips are grouped by start time on a grid anchored at
	// the first trip, each window's stay points are clustered on their own,
	// and the window's candidates are merged into the pool. Zero or negative
	// means DefaultPoolWindowSeconds.
	PoolWindowSeconds float64
	// UseGridMerge switches candidate generation to grid merging (the
	// DLInfMA-Grid variant): stay points, and window candidates across
	// windows, merge exactly when they share a ClusterDistance grid cell.
	UseGridMerge bool
	// Workers bounds stay-point extraction parallelism; 0 means GOMAXPROCS.
	Workers int
	// LCTotalTrips overrides the location-commonality denominator's trip
	// universe (Equation 2). Zero uses the pipeline's own dataset size; a
	// sharded engine sets the global trip count here so per-shard pipelines
	// normalize LC exactly like one global pipeline would.
	LCTotalTrips int
}

// DefaultPoolWindowSeconds is the paper's bi-weekly pool-maintenance period.
const DefaultPoolWindowSeconds = 14 * 86400

// DefaultConfig returns the paper's settings: D_max = 20 m, T_min = 30 s,
// D = 40 m, bi-weekly pool windows.
func DefaultConfig() Config {
	return Config{
		Noise:             traj.DefaultNoiseFilter(),
		Stay:              traj.DefaultStayPointConfig(),
		ClusterDistance:   40,
		PoolWindowSeconds: DefaultPoolWindowSeconds,
	}
}

// Location is one delivery-location candidate in the pool, with the profile
// features of Section III-B.
type Location struct {
	ID  int
	Loc geo.Point
	// AvgDuration is the mean stay duration at the location in seconds.
	AvgDuration float64
	// NCouriers is the number of distinct couriers observed at the location.
	NCouriers int
	// TimeDist is the normalized 24-bin hour-of-day distribution of visits.
	TimeDist [24]float64
	// NStays is the number of stay points merged into the location.
	NStays int
}

// StayVisit is one stay of one trip, resolved to a pool location.
type StayVisit struct {
	LocID   int
	ArriveT float64
	LeaveT  float64
	MidT    float64
}

// Pool is the candidate pool plus the per-trip visit lists used for
// retrieval and feature extraction.
type Pool struct {
	Locations []Location
	// Visits[t] lists the trip t's stays in chronological order.
	Visits [][]StayVisit
}

// ExtractAllStayPoints runs noise filtering and stay-point detection over
// every trip in parallel (the paper's trajectory-level parallelization,
// Section V-F); BuildPool and the serving engine's shards run each batch
// window through it. Cancelling ctx stops the fan-out between trips and
// returns ctx.Err().
func ExtractAllStayPoints(ctx context.Context, ds *model.Dataset, cfg Config) ([][]traj.StayPoint, error) {
	out := make([][]traj.StayPoint, len(ds.Trips))
	err := nn.ParallelForCtx(ctx, cfg.workers(), len(ds.Trips), func(i int) {
		out[i] = extractStayPoints(ds.Trips[i].Traj, cfg)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// workers resolves Config.Workers, mapping 0 to GOMAXPROCS.
func (cfg Config) workers() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// BuildPool constructs the candidate pool of a dataset the way the engine
// maintains the served one: ForEachWindow cuts the trips into
// PoolWindowSeconds windows; each window's stay points are extracted, queued
// with AppendTripStays and sealed as one window; and the builder is
// finalized. Cancelling ctx aborts between trips during a window's
// extraction and between windows, returning ctx.Err().
func BuildPool(ctx context.Context, ds *model.Dataset, cfg Config) (*Pool, error) {
	b := NewIncrementalPoolBuilder(cfg)
	err := ForEachWindow(ds.Trips, cfg.PoolWindowSeconds, func(batch []model.Trip) error {
		stays, err := ExtractAllStayPoints(ctx, &model.Dataset{Trips: batch}, cfg)
		if err != nil {
			return err
		}
		for i := range batch {
			b.AppendTripStays(batch[i].Courier, stays[i])
		}
		return b.SealWindow(ctx)
	})
	if err != nil {
		return nil, err
	}
	return b.FinalizeCtx(ctx), nil
}
