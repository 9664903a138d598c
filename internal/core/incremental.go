package core

import (
	"context"
	"slices"
	"sort"

	"dlinfma/internal/cluster"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/obs"
	"dlinfma/internal/traj"
)

// IncrementalPoolBuilder maintains the candidate pool the way the deployed
// system does (Sections III-B and V-F): each new time window's stay points
// are clustered on their own, then the window's candidates are merged with
// the existing pool — by centroid-linkage merging of weighted centroids
// around the new candidates, or by grid cell under Config.UseGridMerge.
// Profiles (duration, couriers, time distribution) merge additively.
//
// It is the only pool construction: BuildPool drives it over a whole
// dataset, the serving engine window by window as trips arrive, so a new
// bi-weekly batch never reprocesses history and offline experiments evaluate
// the pool that is served.
type IncrementalPoolBuilder struct {
	cfg Config

	// items holds the alive candidates, ascending by id. Every window
	// candidate and every merge is issued the next id; succ[id] is -1 while
	// id is alive and its successor's id once it merged away. That link is
	// all a merged-away item keeps: its profile leaves items at the end of
	// the seal that merged it, so between seals items holds the alive pool
	// and nothing else.
	items []incrementalItem
	succ  []int32
	// visits records, per appended trip, its stay visits tagged with the
	// item id they joined; Finalize chases the tags to final locations.
	visits [][]rawVisit
	// pending holds trips whose stay points have been appended but not yet
	// clustered into the pool; SealWindow turns them into one window. Each
	// already owns a reserved slot in visits so trip order is fixed at
	// append time.
	pending []pendingTrip
	// index holds the alive items' weighted centroids across seals (not
	// under UseGridMerge), under ids of its own; ref maps an index id to
	// its item id (-1 for a centroid the index merged on within one seal).
	index *cluster.CentroidIndex
	ref   []int32
	// couriers is the scratch a courier set is gathered in.
	couriers []model.CourierID
}

// pendingTrip is one appended trip awaiting its window seal.
type pendingTrip struct {
	slot    int // index into visits reserved for this trip
	courier model.CourierID
	stays   []traj.StayPoint
}

// incrementalItem is the profile of one alive candidate.
type incrementalItem struct {
	id       int
	centroid geo.Point
	// anchor is one of the stay points behind the item. Grid merging groups
	// items by their anchors' cells: a centroid is only as exact as its
	// floating-point sum, a member point is in the cell by definition.
	anchor geo.Point
	weight float64
	dur    float64
	// hist counts the item's stays by hour of day.
	hist [24]uint32
	// couriers is the sorted, distinct set of couriers seen at the item.
	couriers []model.CourierID
}

// rawVisit is one stay of a trip, tagged with the item it joined; its
// midpoint is (arriveT+leaveT)/2, as traj.StayPoint.MidT computes it.
type rawVisit struct {
	item            int32
	arriveT, leaveT float64
}

// NewIncrementalPoolBuilder returns an empty builder.
func NewIncrementalPoolBuilder(cfg Config) *IncrementalPoolBuilder {
	if cfg.ClusterDistance <= 0 {
		cfg.ClusterDistance = 40
	}
	b := &IncrementalPoolBuilder{cfg: cfg}
	if !cfg.UseGridMerge {
		b.index = cluster.NewCentroidIndex(cfg.ClusterDistance)
	}
	return b
}

// AppendTripStays queues one trip's already-extracted stay points for the
// next window seal, reserving the trip's slot in the visit log immediately
// (trip order across the builder's lifetime is append order). The builder
// takes ownership of stays. It is the builder's one trip intake: a batch
// window's trips (extracted by ExtractAllStayPoints) and a streamed trip's
// stay points (closed by the engine's StreamExtractor) both enter here, and
// the caller decides where the window ends by calling SealWindow.
func (b *IncrementalPoolBuilder) AppendTripStays(courier model.CourierID, stays []traj.StayPoint) {
	slot := len(b.visits)
	b.visits = append(b.visits, nil)
	b.pending = append(b.pending, pendingTrip{slot: slot, courier: courier, stays: stays})
}

// SealWindow clusters every pending trip's stay points as one window and
// merges the window's candidates into the pool: the one window cut, whether
// the window came as a batch or as a stream. A seal with nothing pending is
// a no-op. ctx carries the trace span only; the seal always completes once
// started.
func (b *IncrementalPoolBuilder) SealWindow(ctx context.Context) error {
	if len(b.pending) == 0 {
		return nil
	}
	defer obs.StartSpanCtx(ctx, "pool_window", stagePoolWindow).End()
	type stay struct {
		sp   traj.StayPoint
		trip int // index into b.pending
	}
	var stays []stay
	for ti := range b.pending {
		for _, sp := range b.pending[ti].stays {
			stays = append(stays, stay{sp: sp, trip: ti})
		}
	}
	pts := make([]geo.Point, len(stays))
	for i, s := range stays {
		pts[i] = s.sp.Loc
	}
	var windowClusters []cluster.Cluster
	if b.cfg.UseGridMerge {
		windowClusters = cluster.GridMerge(pts, b.cfg.ClusterDistance)
	} else {
		windowClusters = cluster.Hierarchical(pts, b.cfg.ClusterDistance)
	}

	// Install the window's candidates as new items and record visits.
	// Every stay joins one candidate: a trip's visits are its stays.
	windowVisits := make([][]rawVisit, len(b.pending))
	for ti := range windowVisits {
		windowVisits[ti] = make([]rawVisit, 0, len(b.pending[ti].stays))
	}
	var firstNew int
	if b.index != nil {
		firstNew = b.index.Len()
	}
	for _, c := range windowClusters {
		id := len(b.succ)
		item := incrementalItem{
			id:       id,
			centroid: c.Centroid,
			anchor:   pts[c.Members[0]],
			weight:   float64(len(c.Members)),
		}
		cs := b.couriers[:0]
		for _, m := range c.Members {
			s := stays[m]
			item.dur += s.sp.Duration()
			hour := int(s.sp.MidT()/3600) % 24
			if hour < 0 {
				hour += 24
			}
			item.hist[hour]++
			cs = append(cs, b.pending[s.trip].courier)
			windowVisits[s.trip] = append(windowVisits[s.trip], rawVisit{
				item: int32(id), arriveT: s.sp.ArriveT, leaveT: s.sp.LeaveT,
			})
		}
		item.couriers, b.couriers = courierSet(cs), cs
		b.items = append(b.items, item)
		b.succ = append(b.succ, -1)
		if b.index != nil {
			b.link(b.index.Add(cluster.WeightedPoint{P: item.centroid, W: item.weight}), id)
		}
	}
	for ti, vs := range windowVisits {
		sort.Slice(vs, func(i, j int) bool { return vs[i].arriveT < vs[j].arriveT })
		b.visits[b.pending[ti].slot] = vs
	}
	b.pending = nil

	if b.index != nil {
		b.mergeNew(firstNew)
	} else {
		b.mergeGrid()
	}
	// Drop the merged-away profiles, keeping the alive ones in id order.
	b.items = slices.DeleteFunc(b.items, func(it incrementalItem) bool { return b.succ[it.id] != -1 })
	return nil
}

// courierSet returns the sorted, distinct couriers of cs in a slice of its
// own, reordering cs.
func courierSet(cs []model.CourierID) []model.CourierID {
	slices.Sort(cs)
	return slices.Clone(slices.Compact(cs))
}

// mergeNew merges the window's candidates — index ids from first on — with
// each other and with the alive items around them. The pool is
// cluster.HierarchicalWeighted over every alive item's centroid, without
// re-clustering the items the window cannot reach (cluster.CentroidIndex).
func (b *IncrementalPoolBuilder) mergeNew(first int) {
	var ids []int
	for _, m := range b.index.MergeNew(first) {
		ids = ids[:0]
		for _, ix := range m.Members {
			ids = append(ids, int(b.ref[ix]))
		}
		b.link(m.ID, b.absorb(m.Centroid, ids))
	}
}

// link records that index id ix stands for item id.
func (b *IncrementalPoolBuilder) link(ix, id int) {
	for len(b.ref) <= ix {
		b.ref = append(b.ref, -1)
	}
	b.ref[ix] = int32(id)
}

// mergeGrid merges the alive items whose anchors share a grid cell,
// preserving additive profiles, so the pool is cluster.GridMerge over every
// stay point seen, whatever the windows.
func (b *IncrementalPoolBuilder) mergeGrid() {
	// Every item is alive until the first absorb.
	anchors := make([]geo.Point, len(b.items))
	for i := range anchors {
		anchors[i] = b.items[i].anchor
	}
	var ids []int
	for _, c := range cluster.GridMerge(anchors, b.cfg.ClusterDistance) {
		if len(c.Members) < 2 {
			continue
		}
		// GridMerge averaged the anchors; a cell's centroid is the
		// weight-averaged centroids of its items.
		ids = ids[:0]
		var sx, sy, w float64
		for _, m := range c.Members {
			it := &b.items[m]
			sx += it.centroid.X * it.weight
			sy += it.centroid.Y * it.weight
			w += it.weight
			ids = append(ids, it.id)
		}
		b.absorb(geo.Point{X: sx / w, Y: sy / w}, ids)
	}
}

// absorb merges the alive items ids, in order, into a fresh item at
// centroid and returns its id. The merged items keep their place in items
// until the seal ends.
func (b *IncrementalPoolBuilder) absorb(centroid geo.Point, ids []int) int {
	merged := incrementalItem{id: len(b.succ), centroid: centroid}
	cs := b.couriers[:0]
	for k, id := range ids {
		it := &b.items[sort.Search(len(b.items), func(i int) bool { return b.items[i].id >= id })]
		if k == 0 {
			merged.anchor = it.anchor
		}
		merged.weight += it.weight
		merged.dur += it.dur
		for h, n := range it.hist {
			merged.hist[h] += n
		}
		cs = append(cs, it.couriers...)
		b.succ[id] = int32(merged.id)
	}
	merged.couriers, b.couriers = courierSet(cs), cs
	b.items = append(b.items, merged)
	b.succ = append(b.succ, -1)
	return merged.id
}

// Finalize produces the Pool. The builder can keep accepting windows after
// Finalize; each call snapshots the current state.
func (b *IncrementalPoolBuilder) Finalize() *Pool {
	return b.FinalizeCtx(context.Background())
}

// FinalizeCtx is Finalize with the caller's context, so the finalize stage
// span lands in the request or job trace carrying the builder. It covers the
// sealed trips only: cutting the pending ones' window is the caller's call.
func (b *IncrementalPoolBuilder) FinalizeCtx(ctx context.Context) *Pool {
	defer obs.StartSpanCtx(ctx, "pool_finalize", stagePoolFinalize).End()
	// Location ids are dense in item order; a merged-away item takes its
	// successor's, and a successor's id is larger than its own.
	finalID := make([]int32, len(b.succ))
	p := &Pool{Locations: slices.Grow([]Location(nil), len(b.items))}
	for i := range b.items {
		it := &b.items[i]
		finalID[it.id] = int32(i)
		loc := Location{ID: i, Loc: it.centroid, NStays: int(it.weight), NCouriers: len(it.couriers)}
		if it.weight > 0 {
			loc.AvgDuration = it.dur / it.weight
			for h, n := range it.hist {
				loc.TimeDist[h] = float64(n) / it.weight
			}
		}
		p.Locations = append(p.Locations, loc)
	}
	for id := len(b.succ) - 1; id >= 0; id-- {
		if s := b.succ[id]; s != -1 {
			finalID[id] = finalID[s]
		}
	}
	sealed := b.visits[:len(b.visits)-len(b.pending)]
	p.Visits = make([][]StayVisit, len(sealed))
	for t, vs := range sealed {
		out := make([]StayVisit, len(vs))
		for i, v := range vs {
			out[i] = StayVisit{
				LocID:   int(finalID[v.item]),
				ArriveT: v.arriveT, LeaveT: v.leaveT, MidT: (v.arriveT + v.leaveT) / 2,
			}
		}
		p.Visits[t] = out
	}
	poolLocationsGauge.Set(float64(len(p.Locations)))
	return p
}

// NextWindow is the one window-grid rule: it advances a grid whose open
// window ends at end (0: no window yet, so the grid anchors at t) to a trip
// starting at t, in window-second steps (window <= 0:
// DefaultPoolWindowSeconds). It returns the end of the window t falls in and
// whether t starts past end, which completes the open window.
func NextWindow(end, t, window float64) (float64, bool) {
	if window <= 0 {
		window = DefaultPoolWindowSeconds
	}
	if end == 0 {
		return t + window, false
	}
	if t < end {
		return end, false
	}
	for t >= end {
		end += window
	}
	return end, true
}

// ForEachWindow splits trips into window-second batches by trip start on
// NextWindow's grid, anchored at the first trip's start, and feeds each
// non-empty batch to fn, stopping at fn's first error. It is the one window
// grid of the batch path: BuildPool and the serving engine's dataset ingest
// both cut here, and the streamed ingest advances the same rule, so their
// pools cannot drift apart.
func ForEachWindow(trips []model.Trip, window float64, fn func([]model.Trip) error) error {
	var batch []model.Trip
	var end float64
	for _, tr := range trips {
		var cut bool
		if end, cut = NextWindow(end, tr.StartT, window); cut {
			if err := fn(batch); err != nil {
				return err
			}
			batch = nil
		}
		batch = append(batch, tr)
	}
	if len(batch) > 0 {
		return fn(batch)
	}
	return nil
}
