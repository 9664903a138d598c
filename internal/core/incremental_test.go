package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dlinfma/internal/cluster"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/traj"
)

// addWindow feeds one window into the builder as BuildPool does — extract
// every trip's stay points, append them, seal — failing the test on error.
func addWindow(t *testing.T, b *IncrementalPoolBuilder, trips []model.Trip) {
	t.Helper()
	ctx := context.Background()
	stays, err := ExtractAllStayPoints(ctx, &model.Dataset{Trips: trips}, b.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trips {
		b.AppendTripStays(trips[i].Courier, stays[i])
	}
	if err := b.SealWindow(ctx); err != nil {
		t.Fatal(err)
	}
}

// dwellTrip builds a trip that dwells at each of the given locations for
// 90 s with GPS jitter, starting at t0.
func dwellTrip(rng *rand.Rand, courier model.CourierID, t0 float64, locs ...geo.Point) model.Trip {
	var tr traj.Trajectory
	t := t0
	for _, l := range locs {
		for end := t + 90; t < end; t += 10 {
			tr = append(tr, traj.GPSPoint{
				P: geo.Point{X: l.X + rng.NormFloat64()*2, Y: l.Y + rng.NormFloat64()*2},
				T: t,
			})
		}
		// Travel gap.
		t += 120
	}
	return model.Trip{Courier: courier, StartT: t0, EndT: t, Traj: tr}
}

func TestIncrementalBuilderMergesAcrossWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	site := geo.Point{X: 100, Y: 100}
	other := geo.Point{X: 500, Y: 100}
	b := NewIncrementalPoolBuilder(DefaultConfig())
	// Window 1 visits site; window 2 visits site (slightly offset) and other.
	addWindow(t, b, []model.Trip{dwellTrip(rng, 0, 0, site)})
	addWindow(t, b, []model.Trip{dwellTrip(rng, 0, 14*86400, site.Add(geo.Point{X: 5, Y: 0}), other)})
	pool := b.Finalize()

	if len(pool.Locations) != 2 {
		t.Fatalf("got %d locations, want 2 (site merged across windows)", len(pool.Locations))
	}
	// The merged site has two stays and the other one.
	id, d := nearestLocation(pool, site)
	if d > 20 {
		t.Fatalf("no location near site (%.1f m)", d)
	}
	if pool.Locations[id].NStays != 2 {
		t.Errorf("merged site has %d stays, want 2", pool.Locations[id].NStays)
	}
	if pool.Locations[id].AvgDuration < 60 {
		t.Errorf("merged avg duration %.0f too small", pool.Locations[id].AvgDuration)
	}
	// Visits reference final ids and are per-trip.
	if len(pool.Visits) != 2 {
		t.Fatalf("got %d visit lists, want 2", len(pool.Visits))
	}
	for ti, vs := range pool.Visits {
		if len(vs) == 0 {
			t.Fatalf("trip %d has no visits", ti)
		}
		for _, v := range vs {
			if v.LocID < 0 || v.LocID >= len(pool.Locations) {
				t.Fatalf("trip %d visit references id %d", ti, v.LocID)
			}
		}
	}
}

func TestIncrementalBuilderCourierProfileMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	site := geo.Point{X: 50, Y: 50}
	b := NewIncrementalPoolBuilder(DefaultConfig())
	addWindow(t, b, []model.Trip{dwellTrip(rng, 0, 0, site)})
	addWindow(t, b, []model.Trip{dwellTrip(rng, 1, 14*86400, site)})
	pool := b.Finalize()
	id, _ := nearestLocation(pool, site)
	if pool.Locations[id].NCouriers != 2 {
		t.Errorf("merged location has %d couriers, want 2", pool.Locations[id].NCouriers)
	}
}

// oneWindow is a pool window longer than any test dataset: the whole dataset
// clusters as a single window, the one-shot reference of these tests.
const oneWindow = 3650 * 86400

func TestBuildPoolMatchesHandDrivenBuilder(t *testing.T) {
	// BuildPool is the window loop and nothing else: whatever the window
	// size, it returns exactly the pool of a builder fed by hand over
	// ForEachWindow — the way the engine's dataset ingest drives its own.
	ds, _, _ := tiny(t)
	ctx := context.Background()
	cfgOne := DefaultConfig()
	cfgOne.PoolWindowSeconds = oneWindow
	one, err := BuildPool(ctx, ds, cfgOne)
	if err != nil {
		t.Fatal(err)
	}

	for _, windowDays := range []float64{3, 7, 14, 60} {
		cfg := DefaultConfig()
		cfg.PoolWindowSeconds = windowDays * 86400
		pool, err := BuildPool(ctx, ds, cfg)
		if err != nil {
			t.Fatalf("window %.0fd: %v", windowDays, err)
		}
		requireSamePool(t, handDrivenPool(t, ds, cfg), pool)

		// Windowing moves merges, never stays: every trip keeps its visits.
		if len(pool.Visits) != len(one.Visits) {
			t.Fatalf("window %.0fd: visit lists %d vs %d", windowDays, len(pool.Visits), len(one.Visits))
		}
		for ti := range pool.Visits {
			if len(pool.Visits[ti]) != len(one.Visits[ti]) {
				t.Fatalf("window %.0fd trip %d: %d vs %d visits",
					windowDays, ti, len(pool.Visits[ti]), len(one.Visits[ti]))
			}
		}

		// The pipeline works end to end on the windowed pool.
		pipe := NewPipelineWithPool(ds, cfg, pool)
		found := false
		for _, a := range ds.Addresses {
			if len(pipe.RetrieveCandidates(a.ID)) > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("window %.0fd: no candidates retrievable from the windowed pool", windowDays)
		}
	}
}

// handDrivenPool feeds a builder window by window over ForEachWindow, as the
// engine's dataset ingest does.
func handDrivenPool(t *testing.T, ds *model.Dataset, cfg Config) *Pool {
	t.Helper()
	b := NewIncrementalPoolBuilder(cfg)
	err := ForEachWindow(ds.Trips, cfg.PoolWindowSeconds, func(batch []model.Trip) error {
		addWindow(t, b, batch)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.Finalize()
}

func TestBuildPoolZeroWindowIsTheDefault(t *testing.T) {
	// PoolWindowSeconds <= 0 has one meaning everywhere: the paper's 14 days.
	ds := dowbj(t)
	zero := DefaultConfig()
	zero.PoolWindowSeconds = 0
	pz, err := BuildPool(context.Background(), ds, zero)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := BuildPool(context.Background(), ds, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	requireSamePool(t, pd, pz)
}

func TestBuildPoolIsDeterministic(t *testing.T) {
	// Location ids are part of the result: experiment runs are diffed by id
	// and nearest-location lookups break ties by it. Several builds, because the order this
	// pins used to come from a map iteration that only sometimes differed.
	ds := dowbj(t)
	first, err := BuildPool(context.Background(), ds, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := BuildPool(context.Background(), ds, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		requireSamePool(t, first, again)
	}
}

func TestBuildPoolCancel(t *testing.T) {
	ds, _, _ := tiny(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildPool(ctx, ds, DefaultConfig()); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// A window's extraction stops on the cancelled ctx before any stay
	// point reaches a builder.
	stays, err := ExtractAllStayPoints(ctx, &model.Dataset{Trips: ds.Trips[:1]}, DefaultConfig())
	if err != context.Canceled || stays != nil {
		t.Fatalf("ExtractAllStayPoints on cancelled ctx: got %d trips' stays, %v; want none, context.Canceled", len(stays), err)
	}
}

func TestOneWindowPoolIsHierarchicalOverAllStays(t *testing.T) {
	// A single window is the paper's one-shot construction: centroid-linkage
	// clustering of every stay point (Section III-B).
	small, _, _ := tiny(t)
	for _, ds := range []*model.Dataset{small, dowbj(t)} {
		cfg := DefaultConfig()
		cfg.PoolWindowSeconds = oneWindow
		pool, err := BuildPool(context.Background(), ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stays, pts := allStays(t, ds, cfg)
		requirePoolPartition(t, ds.Name, pool, stays, cluster.Hierarchical(pts, cfg.ClusterDistance))
	}
}

func TestGridPoolIsGridMergeOverAllStays(t *testing.T) {
	// DLInfMA-Grid merges by cell, so windowing cannot change its pool: at
	// every window size the builder — driven by hand or by BuildPool — yields
	// cluster.GridMerge over all stay points.
	small, _, _ := tiny(t)
	for _, ds := range []*model.Dataset{small, dowbj(t)} {
		for _, windowDays := range []float64{3, 7, 14} {
			cfg := DefaultConfig()
			cfg.UseGridMerge = true
			cfg.PoolWindowSeconds = windowDays * 86400
			pool := handDrivenPool(t, ds, cfg)
			stays, pts := allStays(t, ds, cfg)
			requirePoolPartition(t, fmt.Sprintf("%s window %.0fd", ds.Name, windowDays),
				pool, stays, cluster.GridMerge(pts, cfg.ClusterDistance))
			built, err := BuildPool(context.Background(), ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSamePool(t, pool, built)
		}
	}
}

// requireSamePool asserts two pools are identical: ids, centroids, profiles
// and every trip's visit log.
func requireSamePool(t *testing.T, want, got *Pool) {
	t.Helper()
	if !reflect.DeepEqual(want.Locations, got.Locations) {
		t.Fatalf("pool locations differ: %d vs %d", len(want.Locations), len(got.Locations))
	}
	if !reflect.DeepEqual(want.Visits, got.Visits) {
		t.Fatal("pool visit logs differ")
	}
}

// allStays extracts every trip's stay points and flattens their locations in
// trip order — the input a one-shot clustering of the dataset sees.
func allStays(t *testing.T, ds *model.Dataset, cfg Config) ([][]traj.StayPoint, []geo.Point) {
	t.Helper()
	stays, err := ExtractAllStayPoints(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pts []geo.Point
	for _, sps := range stays {
		for _, sp := range sps {
			pts = append(pts, sp.Loc)
		}
	}
	return stays, pts
}

// requirePoolPartition asserts the pool groups the stay points exactly as the
// reference clustering of the flattened points does: as many locations as
// clusters, stay k of trip t visiting location l exactly when its point is in
// the cluster l stands for, and centroids within 1e-9 m (the builder sums
// window by window, the reference in one pass).
func requirePoolPartition(t *testing.T, name string, pool *Pool, stays [][]traj.StayPoint, want []cluster.Cluster) {
	t.Helper()
	if len(pool.Locations) != len(want) {
		t.Fatalf("%s: %d pool locations, reference clustering has %d", name, len(pool.Locations), len(want))
	}
	clusterOf := make(map[int]int)
	for c, cl := range want {
		for _, m := range cl.Members {
			clusterOf[m] = c
		}
	}
	locOf := make(map[int]int, len(want)) // cluster -> location
	seen := make(map[int]bool, len(want)) // locations already standing for a cluster
	flat := 0
	for ti, sps := range stays {
		if len(pool.Visits[ti]) != len(sps) {
			t.Fatalf("%s trip %d: %d visits for %d stay points", name, ti, len(pool.Visits[ti]), len(sps))
		}
		for k := range sps {
			c, l := clusterOf[flat], pool.Visits[ti][k].LocID
			flat++
			if prev, ok := locOf[c]; ok {
				if prev != l {
					t.Fatalf("%s: cluster %d is split over locations %d and %d", name, c, prev, l)
				}
				continue
			}
			if seen[l] {
				t.Fatalf("%s: location %d joins cluster %d with another", name, l, c)
			}
			locOf[c], seen[l] = l, true
		}
	}
	for c, cl := range want {
		loc := pool.Locations[locOf[c]]
		if d := geo.Dist(loc.Loc, cl.Centroid); d > 1e-9 {
			t.Fatalf("%s: location %d is %.3g m from its cluster's centroid", name, loc.ID, d)
		}
		if loc.NStays != len(cl.Members) {
			t.Fatalf("%s: location %d has %d stays, its cluster %d", name, loc.ID, loc.NStays, len(cl.Members))
		}
	}
}

func TestIncrementalBuilderEmptyWindow(t *testing.T) {
	b := NewIncrementalPoolBuilder(DefaultConfig())
	addWindow(t, b, nil)
	pool := b.Finalize()
	if len(pool.Locations) != 0 {
		t.Errorf("empty builder produced %d locations", len(pool.Locations))
	}
}

func TestIncrementalBuilderSnapshotSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewIncrementalPoolBuilder(DefaultConfig())
	addWindow(t, b, []model.Trip{dwellTrip(rng, 0, 0, geo.Point{X: 10, Y: 10})})
	p1 := b.Finalize()
	addWindow(t, b, []model.Trip{dwellTrip(rng, 0, 14*86400, geo.Point{X: 900, Y: 900})})
	p2 := b.Finalize()
	if len(p1.Locations) != 1 || len(p2.Locations) != 2 {
		t.Errorf("snapshots: %d then %d locations, want 1 then 2", len(p1.Locations), len(p2.Locations))
	}
}

// TestReplayedSealsMatchClustered: a builder that installs what the first k
// seals of another made (InstallWindow) and clusters the rest ends up equal
// to the one that clustered every seal — the whole builder, under
// reflect.DeepEqual — for every k. A result made over another window or
// pool is declined without a change, and one that does not fit is an error.
func TestReplayedSealsMatchClustered(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultConfig()
	sites := make([]geo.Point, 60)
	for i := range sites {
		sites[i] = geo.Point{X: rng.Float64() * 1500, Y: rng.Float64() * 1500}
	}
	var windows [][][]traj.StayPoint
	tm := 0.0
	for w := 0; w < 12; w++ {
		trips := make([][]traj.StayPoint, 1+rng.Intn(8))
		for i := range trips {
			for k := rng.Intn(9); k > 0; k-- {
				p := sites[rng.Intn(len(sites))]
				tm += 30 + rng.Float64()*3000
				trips[i] = append(trips[i], traj.StayPoint{
					Loc:     geo.Point{X: p.X + rng.NormFloat64()*12, Y: p.Y + rng.NormFloat64()*12},
					ArriveT: tm, LeaveT: tm + 60 + rng.Float64()*600, NPoints: 4,
				})
			}
		}
		windows = append(windows, trips)
	}
	// One trip's stays arrive out of order, two of them at once: its visits
	// are sorted from the order its clusters list them.
	for _, at := range []float64{5, -1, 5} {
		windows[3][0] = append(windows[3][0], traj.StayPoint{Loc: sites[0], ArriveT: at, LeaveT: at + 60, NPoints: 4})
	}
	feed := func(b *IncrementalPoolBuilder, w int) {
		for i, stays := range windows[w] {
			b.AppendTripStays(model.CourierID(w*8+i), slices.Clone(stays))
		}
	}
	clustered := NewIncrementalPoolBuilder(cfg)
	var results []*SealResult
	merges := 0
	for w := range windows {
		feed(clustered, w)
		res, err := clustered.SealWindowResult(ctx)
		if err != nil || res == nil {
			t.Fatalf("window %d: result %v, %v", w, res, err)
		}
		results = append(results, res)
		merges += len(res.Pool)
	}
	if merges == 0 {
		t.Fatal("no window merged into the pool")
	}
	for k := 0; k <= len(windows); k++ {
		b := NewIncrementalPoolBuilder(cfg)
		for w := range windows {
			feed(b, w)
			if w >= k {
				if err := b.SealWindow(ctx); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if w+1 < len(results) {
				// The next window's result was made over another window and
				// pool; declining it must change nothing, or the builders
				// below differ.
				if ok, err := b.InstallWindow(ctx, results[w+1]); ok || err != nil {
					t.Fatalf("k=%d: window %d took window %d's result: %v, %v", k, w, w+1, ok, err)
				}
			}
			if ok, err := b.InstallWindow(ctx, results[w]); !ok || err != nil {
				t.Fatalf("k=%d: window %d's own result declined: %v, %v", k, w, ok, err)
			}
		}
		if !reflect.DeepEqual(b, clustered) {
			t.Fatalf("installing the first %d seals and clustering the rest built another builder", k)
		}
	}

	// Results that match the last window but do not fit it.
	last := len(results) - 1
	res := *results[last]
	if len(res.Pool) == 0 || len(res.Window) == 0 {
		t.Fatal("the last window merged nothing")
	}
	pool := func(f func(m *cluster.Merged)) SealResult {
		bad := res
		bad.Pool = slices.Clone(res.Pool)
		m := &bad.Pool[len(bad.Pool)-1]
		m.Members = slices.Clone(m.Members)
		f(m)
		return bad
	}
	window := func(f func(c *cluster.Cluster)) SealResult {
		bad := res
		bad.Window = slices.Clone(res.Window)
		c := &bad.Window[0]
		c.Members = slices.Clone(c.Members)
		f(c)
		return bad
	}
	for name, bad := range map[string]SealResult{
		"a stay in two clusters": window(func(c *cluster.Cluster) { c.Members[1] = res.Window[len(res.Window)-1].Members[0] }),
		"a stay past the window": window(func(c *cluster.Cluster) { c.Members[1] = res.Stays }),
		"a cluster of one stay":  window(func(c *cluster.Cluster) { c.Members = c.Members[:1] }),
		"a merged-away member":   pool(func(m *cluster.Merged) { m.Members[1] = m.Members[0] }),
		"a weight off":           pool(func(m *cluster.Merged) { m.Weight++ }),
		"an id past the merges":  pool(func(m *cluster.Merged) { m.ID++ }),
	} {
		b := NewIncrementalPoolBuilder(cfg)
		for w := range windows {
			feed(b, w)
			if w < last {
				if err := b.SealWindow(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
		if ok, err := b.InstallWindow(ctx, &bad); ok || err == nil {
			t.Errorf("installing a result with %s: %v, %v", name, ok, err)
		}
	}

	grid := cfg
	grid.UseGridMerge = true
	g := NewIncrementalPoolBuilder(grid)
	feed(g, 0)
	if res, err := g.SealWindowResult(ctx); res != nil || err != nil {
		t.Fatalf("grid merging reported a result %+v, %v", res, err)
	}
	feed(g, 1)
	if ok, err := g.InstallWindow(ctx, results[1]); ok || err != nil {
		t.Fatalf("grid merging installed a result: %v, %v", ok, err)
	}
}
