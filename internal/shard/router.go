// Package shard maps addresses and trajectories onto serving shards. The
// routing unit is the geohash-prefix cell (geo.ShardKey): an address's
// candidates can only come from stay points in its own neighbourhood, so a
// spatial key assigns each address — and the trips that can carry evidence
// for it — to one shard with no cross-shard signal lost. The same move
// appears across last-mile systems (hex-grid spatial indexes for truck
// matching, per-POI-cell aggregation at JD scale); here it is the contract
// behind a multi-shard engine.Engine.
//
// Routing contract:
//
//   - An address routes by the cell of its geocode (AddressShard). The
//     address key — not the per-point key — decides placement, so stay
//     points straddling a cell edge still serve their address: the trips
//     carrying them are replicated to the address's shard by the engine.
//   - A trip on its own routes by the cell of its trajectory midpoint
//     (TripShard). The engine uses this only for trips with no known
//     waybill addresses; otherwise a trip follows its addresses.
//   - Both defaults can be overridden (AssignAddress / AssignTrip) for
//     partition-aligned setups, e.g. routing by courier zone in tests.
package shard

import (
	"fmt"
	"hash/fnv"

	"dlinfma/internal/geo"
	"dlinfma/internal/model"
)

// DefaultPrecision is the geohash character precision of the routing cell.
// Six characters is a ~1.2 km x 0.6 km cell: coarse enough that one
// courier's neighbourhood rarely spans many cells, fine enough to spread a
// city over tens of shards.
const DefaultPrecision = 6

// Router assigns addresses, trips, and raw points to one of N shards by
// hashing their geohash cell. The zero value is not usable; call NewRouter.
type Router struct {
	n         int
	precision int

	// AssignAddress, when set, overrides spatial routing for addresses
	// (must return a shard in [0, N)). Used for partition-aligned routing,
	// e.g. by courier zone.
	AssignAddress func(model.AddressInfo) int
	// AssignTrip, when set, overrides spatial routing for trips.
	AssignTrip func(model.Trip) int
}

// NewRouter returns a Router over n shards at the given geohash precision
// (0 means DefaultPrecision). It fails on a non-positive shard count.
func NewRouter(n, precision int) (*Router, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", n)
	}
	if precision == 0 {
		precision = DefaultPrecision
	}
	if precision < 1 || precision > 12 {
		return nil, fmt.Errorf("shard: geohash precision %d outside [1, 12]", precision)
	}
	return &Router{n: n, precision: precision}, nil
}

// N returns the shard count.
func (r *Router) N() int { return r.n }

// Precision returns the routing cell's geohash precision.
func (r *Router) Precision() int { return r.precision }

// Key returns the routing cell of a planar point.
func (r *Router) Key(p geo.Point) geo.ShardKey {
	return geo.ShardKeyOf(p, r.precision)
}

// ShardOfKey hashes a cell key onto a shard. All points of one cell land on
// one shard; distinct cells spread uniformly.
func (r *Router) ShardOfKey(k geo.ShardKey) int {
	if r.n == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(k))
	return int(h.Sum32() % uint32(r.n))
}

// ShardOfPoint routes a raw planar point.
func (r *Router) ShardOfPoint(p geo.Point) int {
	return r.ShardOfKey(r.Key(p))
}

// AddressShard routes an address by the cell of its geocode (or the
// AssignAddress override).
func (r *Router) AddressShard(a model.AddressInfo) int {
	if r.AssignAddress != nil {
		return r.clamp(r.AssignAddress(a))
	}
	return r.ShardOfPoint(a.Geocode)
}

// TripShard routes a trip by the cell of its trajectory midpoint (or the
// AssignTrip override). A trip with an empty trajectory routes to shard 0.
func (r *Router) TripShard(t model.Trip) int {
	if r.AssignTrip != nil {
		return r.clamp(r.AssignTrip(t))
	}
	if len(t.Traj) == 0 {
		return 0
	}
	return r.ShardOfPoint(t.Traj[len(t.Traj)/2].P)
}

// clamp guards against override functions stepping outside [0, N).
func (r *Router) clamp(s int) int {
	if s < 0 {
		return 0
	}
	if s >= r.n {
		return r.n - 1
	}
	return s
}
