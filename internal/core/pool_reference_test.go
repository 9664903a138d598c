package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"dlinfma/internal/cluster"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/traj"
)

// refPoolBuilder is the pool builder as it stood before its state followed
// the alive pool: every window candidate and every merge stays an item for
// good, each with a Go map of its couriers and a float64 hour histogram, and
// every seal re-clusters all alive items' centroids together with the
// window's candidates (cluster.HierarchicalWeighted), the definition that
// IncrementalPoolBuilder's CentroidIndex reaches without the re-cluster. It
// is the reference FuzzPoolBuilder holds IncrementalPoolBuilder to.
type refPoolBuilder struct {
	cfg     Config
	items   []refItem
	visits  [][]refVisit
	pending []pendingTrip
}

type refItem struct {
	centroid, anchor geo.Point
	weight, dur      float64
	hist             [24]float64
	couriers         map[model.CourierID]struct{}
	succ             int // -1 while alive
}

type refVisit struct {
	item                  int
	arriveT, leaveT, midT float64
}

func newRefPoolBuilder(cfg Config) *refPoolBuilder {
	if cfg.ClusterDistance <= 0 {
		cfg.ClusterDistance = 40
	}
	return &refPoolBuilder{cfg: cfg}
}

func (b *refPoolBuilder) appendTripStays(courier model.CourierID, stays []traj.StayPoint) {
	b.pending = append(b.pending, pendingTrip{slot: len(b.visits), courier: courier, stays: stays})
	b.visits = append(b.visits, nil)
}

func (b *refPoolBuilder) sealWindow() {
	if len(b.pending) == 0 {
		return
	}
	type stay struct {
		sp   traj.StayPoint
		trip int
	}
	var stays []stay
	var pts []geo.Point
	for ti, pt := range b.pending {
		for _, sp := range pt.stays {
			stays = append(stays, stay{sp, ti})
			pts = append(pts, sp.Loc)
		}
	}
	var window []cluster.Cluster
	if b.cfg.UseGridMerge {
		window = cluster.GridMerge(pts, b.cfg.ClusterDistance)
	} else {
		window = cluster.Hierarchical(pts, b.cfg.ClusterDistance)
	}
	windowVisits := make([][]refVisit, len(b.pending))
	for _, c := range window {
		it := refItem{
			centroid: c.Centroid, anchor: pts[c.Members[0]], weight: float64(len(c.Members)),
			couriers: map[model.CourierID]struct{}{}, succ: -1,
		}
		for _, m := range c.Members {
			s := stays[m]
			it.dur += s.sp.Duration()
			hour := int(s.sp.MidT()/3600) % 24
			if hour < 0 {
				hour += 24
			}
			it.hist[hour]++
			it.couriers[b.pending[s.trip].courier] = struct{}{}
			windowVisits[s.trip] = append(windowVisits[s.trip], refVisit{len(b.items), s.sp.ArriveT, s.sp.LeaveT, s.sp.MidT()})
		}
		b.items = append(b.items, it)
	}
	for ti, vs := range windowVisits {
		sort.Slice(vs, func(i, j int) bool { return vs[i].arriveT < vs[j].arriveT })
		b.visits[b.pending[ti].slot] = vs
	}
	b.pending = nil

	var alive []int
	for i := range b.items {
		if b.items[i].succ == -1 {
			alive = append(alive, i)
		}
	}
	if b.cfg.UseGridMerge {
		anchors := make([]geo.Point, len(alive))
		for i, id := range alive {
			anchors[i] = b.items[id].anchor
		}
		for _, c := range cluster.GridMerge(anchors, b.cfg.ClusterDistance) {
			if len(c.Members) < 2 {
				continue
			}
			var ids []int
			var sx, sy, w float64
			for _, m := range c.Members {
				it := &b.items[alive[m]]
				sx += it.centroid.X * it.weight
				sy += it.centroid.Y * it.weight
				w += it.weight
				ids = append(ids, alive[m])
			}
			b.absorb(geo.Point{X: sx / w, Y: sy / w}, ids)
		}
		return
	}
	wpts := make([]cluster.WeightedPoint, len(alive))
	for i, id := range alive {
		wpts[i] = cluster.WeightedPoint{P: b.items[id].centroid, W: b.items[id].weight}
	}
	cs := cluster.HierarchicalWeighted(wpts, b.cfg.ClusterDistance)
	for _, c := range cs {
		if len(c.Members) < 2 {
			continue
		}
		ids := make([]int, len(c.Members))
		for i, m := range c.Members {
			ids[i] = alive[m]
		}
		b.absorb(c.Centroid, ids)
	}
}

func (b *refPoolBuilder) absorb(centroid geo.Point, ids []int) {
	merged := refItem{centroid: centroid, anchor: b.items[ids[0]].anchor, couriers: map[model.CourierID]struct{}{}, succ: -1}
	for _, i := range ids {
		it := &b.items[i]
		merged.weight += it.weight
		merged.dur += it.dur
		for h := range it.hist {
			merged.hist[h] += it.hist[h]
		}
		for cr := range it.couriers {
			merged.couriers[cr] = struct{}{}
		}
		it.succ = len(b.items)
	}
	b.items = append(b.items, merged)
}

func (b *refPoolBuilder) finalize() *Pool {
	finalID := map[int]int{}
	p := &Pool{}
	for i := range b.items {
		it := &b.items[i]
		if it.succ != -1 {
			continue
		}
		id := len(p.Locations)
		finalID[i] = id
		loc := Location{ID: id, Loc: it.centroid, NStays: int(it.weight), NCouriers: len(it.couriers)}
		if it.weight > 0 {
			loc.AvgDuration = it.dur / it.weight
			for h := range it.hist {
				loc.TimeDist[h] = it.hist[h] / it.weight
			}
		}
		p.Locations = append(p.Locations, loc)
	}
	sealed := b.visits[:len(b.visits)-len(b.pending)]
	p.Visits = make([][]StayVisit, len(sealed))
	for t, vs := range sealed {
		out := make([]StayVisit, len(vs))
		for i, v := range vs {
			item := v.item
			for b.items[item].succ != -1 {
				item = b.items[item].succ
			}
			out[i] = StayVisit{LocID: finalID[item], ArriveT: v.arriveT, LeaveT: v.leaveT, MidT: v.midT}
		}
		p.Visits[t] = out
	}
	return p
}

// FuzzPoolBuilder feeds IncrementalPoolBuilder and the map-based reference
// the same trips — seeded sites visited with jitter, by couriers that recur
// or are new, cut into windows at random — and holds every FinalizeCtx, after
// every seal and once with trips pending, to the reference's pool:
// locations (centroids, NCouriers, TimeDist and the rest) and every trip's
// visits, under reflect.DeepEqual. A twin builder fed the same trips
// installs what each of the live builder's seals made (InstallWindow), and
// must equal it, the whole builder under reflect.DeepEqual, after every
// seal; under UseGridMerge there is nothing to install, and it seals.
func FuzzPoolBuilder(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(3+seed*7), uint8(seed*5), seed%3 == 2)
	}
	f.Fuzz(func(t *testing.T, seed int64, nSites, nTrips uint8, grid bool) {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.UseGridMerge = grid
		d := cfg.ClusterDistance
		// Sites a fraction of D to a few D apart, some snapped to a grid of
		// D/4 so that equal distances (merge-order ties) occur.
		sites := make([]geo.Point, 1+int(nSites%48))
		side := d * (1 + rng.Float64()*float64(len(sites)))
		for i := range sites {
			p := geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
			if rng.Intn(3) == 0 {
				p = geo.Point{X: math.Round(p.X/(d/4)) * d / 4, Y: math.Round(p.Y/(d/4)) * d / 4}
			}
			sites[i] = p
		}
		jitter := []float64{0, 1, 5, 25}[rng.Intn(4)]
		got, want, twin := NewIncrementalPoolBuilder(cfg), newRefPoolBuilder(cfg), NewIncrementalPoolBuilder(cfg)
		seal := func() {
			t.Helper()
			ctx := context.Background()
			res, err := got.SealWindowResult(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want.sealWindow()
			if ok, err := twin.InstallWindow(ctx, res); err != nil || ok != (res != nil && !grid) {
				t.Fatalf("installing a seal's result: %v, %v", ok, err)
			} else if !ok {
				if err := twin.SealWindow(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(twin, got) {
				t.Fatal("the builder that installed the seal differs from the one that clustered it")
			}
		}
		check := func(when string) {
			t.Helper()
			g, w := got.FinalizeCtx(context.Background()), want.finalize()
			if !reflect.DeepEqual(g.Locations, w.Locations) {
				t.Fatalf("%s: locations differ: %d vs the reference's %d", when, len(g.Locations), len(w.Locations))
			}
			if !reflect.DeepEqual(g.Visits, w.Visits) {
				t.Fatalf("%s: visits differ", when)
			}
		}
		couriers := 0
		tm := rng.Float64()*2e6 - 1e6 // negative times take the hour wrap
		for i := 0; i < 1+int(nTrips%64); i++ {
			courier := model.CourierID(rng.Intn(couriers + 1))
			if int(courier) == couriers {
				couriers++
			}
			stays := make([]traj.StayPoint, rng.Intn(6))
			for k := range stays {
				p := sites[rng.Intn(len(sites))]
				tm += 30 + rng.Float64()*5000
				stays[k] = traj.StayPoint{
					Loc:     geo.Point{X: p.X + rng.NormFloat64()*jitter, Y: p.Y + rng.NormFloat64()*jitter},
					ArriveT: tm, LeaveT: tm + 30 + rng.Float64()*600, NPoints: 3,
				}
			}
			got.AppendTripStays(courier, slices.Clone(stays))
			twin.AppendTripStays(courier, slices.Clone(stays))
			want.appendTripStays(courier, stays)
			switch rng.Intn(4) {
			case 0:
				seal()
				check("after a seal")
			case 1:
				if i%7 == 0 {
					check("with trips pending")
				}
			}
		}
		seal()
		check("after the last seal")
	})
}

// TestPoolBuilderMemoryFollowsAlivePool drives one builder through 50
// windows that revisit the same 200 sites, four new couriers a window, so the
// alive pool stays at 200 locations while the stays grow. What the builder
// holds may grow by the stays' own bytes (a visit each, and a courier in its
// site's set, since every courier is new), and by what the window's merged-
// away centroids keep: two a site a window (the site's old item and its
// window candidate), each its successor link, the index's slot and its
// index-to-item link, rounded up to 64 bytes. The builder that kept every
// merged-away item's profile and courier map grew by over 2 KB a site a
// window here.
func TestPoolBuilderMemoryFollowsAlivePool(t *testing.T) {
	const (
		windows, sites, couriersPerWindow = 50, 200, 4
		mergedAwayBytes                   = 64
	)
	rng := rand.New(rand.NewSource(1))
	locs := make([]geo.Point, sites)
	for i := range locs {
		locs[i] = geo.Point{X: rng.Float64() * 20_000, Y: rng.Float64() * 20_000}
	}
	b := NewIncrementalPoolBuilder(DefaultConfig())
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var at10 uint64
	for w := 0; w < windows; w++ {
		t0 := float64(w) * DefaultPoolWindowSeconds
		for c := 0; c < couriersPerWindow; c++ {
			trip := make([]traj.StayPoint, sites)
			for i, p := range locs {
				at := t0 + float64(c*sites+i)*60
				trip[i] = traj.StayPoint{
					Loc:     geo.Point{X: p.X + rng.NormFloat64()*3, Y: p.Y + rng.NormFloat64()*3},
					ArriveT: at, LeaveT: at + 45, NPoints: 5,
				}
			}
			b.AppendTripStays(model.CourierID(w*couriersPerWindow+c), trip)
		}
		if err := b.SealWindow(context.Background()); err != nil {
			t.Fatal(err)
		}
		if w == 9 {
			at10 = heap()
		}
	}
	at50 := heap()
	if n := len(b.Finalize().Locations); n != sites {
		t.Fatalf("%d alive locations, want one per site (%d)", n, sites)
	}
	runtime.KeepAlive(b)

	const grownWindows = windows - 10
	stays := uint64(grownWindows * couriersPerWindow * sites)
	own := stays*uint64(unsafe.Sizeof(rawVisit{})+unsafe.Sizeof(model.CourierID(0))) +
		uint64(grownWindows*couriersPerWindow)*uint64(unsafe.Sizeof([]rawVisit(nil)))
	bound := uint64(grownWindows * 2 * sites * mergedAwayBytes)
	grown := int64(at50) - int64(at10)
	t.Logf("windows 10 → 50: heap grew %d B, the stays' own bytes %d B, the rest %.0f B a site a window (bound %d)",
		grown, own, float64(grown-int64(own))/float64(grownWindows*sites), 2*mergedAwayBytes)
	if grown > int64(own+bound) {
		t.Fatalf("windows 10 → 50 grew the heap by %d B: %d B past the stays' own %d B, over the bound of %d B",
			grown, grown-int64(own), own, bound)
	}
}
