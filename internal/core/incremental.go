package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
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
	_, err := b.SealWindowResult(ctx)
	return err
}

// SealResult is what one seal made, in the form InstallWindow takes back
// without clustering or merging. Window lists the window's clusters of more
// than one stay, in the order its clustering created them, each with its
// centroid, its weight and its stays (indices in trip and stay order) in
// merge order; every other stay is a cluster of its own. Pool lists the
// items the pool index created and kept, in creation order, each with its
// index id, centroid, weight and the index ids, alive before the seal, it
// took in, in merge order. Stays, StaySum and PoolIDs say what it was made
// over: the window's stay count, a checksum of its stay locations in order
// (everything else depends on), and the ids the pool index had issued
// before the seal.
type SealResult struct {
	Stays   int
	StaySum uint64
	PoolIDs int
	Window  []cluster.Cluster
	Pool    []cluster.Merged
}

// SealWindowResult is SealWindow, reporting what the seal made. Under
// UseGridMerge there is no result to report, and it returns nil.
func (b *IncrementalPoolBuilder) SealWindowResult(ctx context.Context) (*SealResult, error) {
	return b.seal(ctx, nil)
}

// InstallWindow seals the pending window by installing what res says its
// seal made instead of clustering and merging: the window's items, the
// visits and the pool's merges are made from res, through the steps the
// live seal takes after its clustering and its merges, so the pool is the
// one SealWindow would build, bit for bit. Each new item's profile is summed
// from its stays, and each merged item's from its members, as the live seal
// sums them; the merge order is not re-searched. It reports false, and
// changes nothing, when res was not made over this window and pool — its
// stay count, stay checksum or pool id count differ — or there is nothing
// to install into (nothing pending, or UseGridMerge); the caller then seals
// the window with SealWindow. A res that does not fit (a stay out of range
// or in two clusters, a cluster of one stay, a pool item the index refuses
// or whose weight is not its members' sum) is an error, after which the
// builder may hold a partly installed window and must not be used.
func (b *IncrementalPoolBuilder) InstallWindow(ctx context.Context, res *SealResult) (bool, error) {
	if b.index == nil || len(b.pending) == 0 {
		return false, nil
	}
	_, err := b.seal(ctx, res)
	if err == errNotMadeHere {
		return false, nil
	}
	return err == nil, err
}

// errNotMadeHere is seal's answer to a result made over another window or
// pool.
var errNotMadeHere = errors.New("core: seal result made over another window or pool")

// seal is SealWindowResult with install nil, and otherwise InstallWindow of
// install.
func (b *IncrementalPoolBuilder) seal(ctx context.Context, install *SealResult) (*SealResult, error) {
	if len(b.pending) == 0 {
		return nil, nil
	}
	type stay struct {
		sp   *traj.StayPoint
		trip int // index into b.pending
	}
	n := 0
	for ti := range b.pending {
		n += len(b.pending[ti].stays)
	}
	stays := make([]stay, 0, n)
	for ti := range b.pending {
		for k := range b.pending[ti].stays {
			stays = append(stays, stay{sp: &b.pending[ti].stays[k], trip: ti})
		}
	}
	pts := make([]cluster.WeightedPoint, len(stays))
	for i, s := range stays {
		pts[i] = cluster.WeightedPoint{P: s.sp.Loc, W: 1}
	}
	var res *SealResult
	if b.index != nil {
		res = &SealResult{Stays: len(pts), StaySum: staySum(pts), PoolIDs: b.index.Len()}
		if install != nil && (install.Stays != res.Stays || install.StaySum != res.StaySum || install.PoolIDs != res.PoolIDs) {
			return nil, errNotMadeHere
		}
	}
	defer obs.StartSpanCtx(ctx, "pool_window", stagePoolWindow).End()
	// The window's clusters: the stays that merged with none, ascending,
	// then the others in creation order (res.Window); under UseGridMerge,
	// GridMerge's cells in its order.
	var (
		single []int
		window []cluster.Cluster
	)
	switch {
	case b.cfg.UseGridMerge:
		locs := make([]geo.Point, len(pts))
		for i, p := range pts {
			locs[i] = p.P
		}
		window = cluster.GridMerge(locs, b.cfg.ClusterDistance)
	case install != nil:
		var err error
		if single, err = singleStays(len(pts), install.Window); err != nil {
			return nil, fmt.Errorf("core: installing the window's clusters: %w", err)
		}
		window = install.Window
	default:
		cs := cluster.HierarchicalWeighted(pts, b.cfg.ClusterDistance)
		n := slices.IndexFunc(cs, func(c cluster.Cluster) bool { return len(c.Members) > 1 })
		if n < 0 {
			n = len(cs)
		}
		single = make([]int, n)
		for i := range single {
			single[i] = cs[i].Members[0]
		}
		window = cs[n:]
	}
	if res != nil {
		res.Window = window
	}

	// Install the window's candidates as new items, in cluster order, and
	// record which item each stay joined, and when (visitAt: the order the
	// clusters list the stays in).
	itemOf := make([]int32, len(stays))
	visitAt := make([]int32, len(stays))
	nv := int32(0)
	firstItem := len(b.succ)
	addItem := func(centroid geo.Point, members []int) {
		id := len(b.succ)
		item := incrementalItem{
			id:       id,
			centroid: centroid,
			anchor:   pts[members[0]].P,
			weight:   float64(len(members)),
		}
		cs := b.couriers[:0]
		for _, m := range members {
			s := &stays[m]
			item.dur += s.sp.Duration()
			hour := int(s.sp.MidT()/3600) % 24
			if hour < 0 {
				hour += 24
			}
			item.hist[hour]++
			cs = append(cs, b.pending[s.trip].courier)
			itemOf[m], visitAt[m] = int32(id), nv
			nv++
		}
		item.couriers, b.couriers = courierSet(cs), cs
		b.items = append(b.items, item)
		b.succ = append(b.succ, -1)
	}
	for _, m := range single {
		one := [1]int{m}
		addItem(pts[m].P, one[:])
	}
	for _, c := range window {
		addItem(c.Centroid, c.Members)
	}
	// A trip's visits are its stays, each tagged with its item, by arrival.
	// Stays that arrive in order are already so; otherwise they are sorted
	// from the order the clusters list them, as they always were.
	at := 0
	for ti := range b.pending {
		n := len(b.pending[ti].stays)
		vs := make([]rawVisit, n)
		inOrder := true
		for k := range vs {
			s := &stays[at+k]
			vs[k] = rawVisit{item: itemOf[at+k], arriveT: s.sp.ArriveT, leaveT: s.sp.LeaveT}
			inOrder = inOrder && (k == 0 || vs[k-1].arriveT < vs[k].arriveT)
		}
		if !inOrder {
			listed := make([]int, n)
			for k := range listed {
				listed[k] = at + k
			}
			slices.SortFunc(listed, func(x, y int) int { return cmp.Compare(visitAt[x], visitAt[y]) })
			for k, m := range listed {
				vs[k] = rawVisit{item: itemOf[m], arriveT: stays[m].sp.ArriveT, leaveT: stays[m].sp.LeaveT}
			}
			sort.Slice(vs, func(i, j int) bool { return vs[i].arriveT < vs[j].arriveT })
		}
		b.visits[b.pending[ti].slot] = vs
		at += n
	}
	b.pending = nil

	if b.index == nil {
		b.mergeGrid()
	} else if err := b.mergePool(res, install, firstItem); err != nil {
		return nil, fmt.Errorf("core: installing the pool's merges: %w", err)
	}
	// Drop the merged-away profiles, keeping the alive ones in id order.
	b.items = slices.DeleteFunc(b.items, func(it incrementalItem) bool { return b.succ[it.id] != -1 })
	return res, nil
}

// mergePool merges the window's new items, from item id first on, into the
// pool: it adds their centroids to the index, then searches for the merges
// (MergeNew) and reports them in res.Pool, or, with install, installs
// install.Pool's. The merged centroids' items are absorbed either way, and
// an installed item whose weight is not its members' sum is an error.
func (b *IncrementalPoolBuilder) mergePool(res, install *SealResult, first int) error {
	added := b.items[len(b.items)-(len(b.succ)-first):]
	pts := make([]cluster.WeightedPoint, len(added))
	for k := range added {
		pts[k] = cluster.WeightedPoint{P: added[k].centroid, W: added[k].weight}
	}
	if install != nil {
		if err := b.index.Install(pts, install.Pool); err != nil {
			return err
		}
		res.Pool = install.Pool
	} else {
		for _, p := range pts {
			b.index.Add(p)
		}
		res.Pool = b.index.MergeNew(res.PoolIDs)
	}
	for k := range added {
		b.link(res.PoolIDs+k, first+k)
	}
	n := len(b.items)
	b.absorbMerged(res.Pool)
	if install == nil {
		return nil
	}
	for i, m := range res.Pool {
		if w := b.items[n+i].weight; w != m.Weight {
			return fmt.Errorf("item %d weighs %g, its members %g", i, m.Weight, w)
		}
	}
	return nil
}

// singleStays checks that the clusters of more than one stay, window, take
// in each of n stays at most once, and returns the stays they do not take
// in, ascending.
func singleStays(n int, window []cluster.Cluster) ([]int, error) {
	taken := make([]bool, n)
	left := n
	for i, c := range window {
		if len(c.Members) < 2 {
			return nil, fmt.Errorf("cluster %d holds %d stays", i, len(c.Members))
		}
		for _, m := range c.Members {
			switch {
			case m < 0 || m >= n:
				return nil, fmt.Errorf("cluster %d holds stay %d of %d", i, m, n)
			case taken[m]:
				return nil, fmt.Errorf("stay %d is in two clusters", m)
			}
			taken[m] = true
		}
		left -= len(c.Members)
	}
	single := make([]int, 0, left)
	for m, t := range taken {
		if !t {
			single = append(single, m)
		}
	}
	return single, nil
}

// staySum is the FNV-1a hash, over 64-bit words, of the points' locations
// in order.
func staySum(pts []cluster.WeightedPoint) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range pts {
		for _, f := range [2]float64{p.P.X, p.P.Y} {
			h = (h ^ math.Float64bits(f)) * 1099511628211
		}
	}
	return h
}

// courierSet returns the sorted, distinct couriers of cs in a slice of its
// own, reordering cs; most sets are of one stay's courier, sorted already.
func courierSet(cs []model.CourierID) []model.CourierID {
	if !slices.IsSorted(cs) {
		slices.Sort(cs)
	}
	return slices.Clone(slices.Compact(cs))
}

// absorbMerged takes the centroids the pool index merged — the window's
// candidates with each other and with the alive items around them — into
// the items they stand for. The pool is cluster.HierarchicalWeighted over
// every alive item's centroid, without re-clustering the items the window
// cannot reach (cluster.CentroidIndex).
func (b *IncrementalPoolBuilder) absorbMerged(merged []cluster.Merged) {
	var ids []int
	for _, m := range merged {
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
