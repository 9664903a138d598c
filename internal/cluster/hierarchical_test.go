package cluster

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dlinfma/internal/geo"
)

func TestHierarchicalEmpty(t *testing.T) {
	if got := Hierarchical(nil, 40); got != nil {
		t.Errorf("Hierarchical(nil) = %v, want nil", got)
	}
}

func TestHierarchicalSinglePoint(t *testing.T) {
	got := Hierarchical([]geo.Point{{X: 5, Y: 5}}, 40)
	if len(got) != 1 || got[0].Centroid != (geo.Point{X: 5, Y: 5}) || got[0].Weight != 1 {
		t.Errorf("single point: %+v", got)
	}
}

func TestHierarchicalTwoGroups(t *testing.T) {
	// Two tight groups 500 m apart must become exactly two clusters.
	var pts []geo.Point
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		pts = append(pts, geo.Point{X: r.NormFloat64() * 5, Y: r.NormFloat64() * 5})
	}
	for i := 0; i < 30; i++ {
		pts = append(pts, geo.Point{X: 500 + r.NormFloat64()*5, Y: r.NormFloat64() * 5})
	}
	cs := Hierarchical(pts, 40)
	if len(cs) != 2 {
		t.Fatalf("got %d clusters, want 2", len(cs))
	}
	var total int
	for _, c := range cs {
		total += len(c.Members)
	}
	if total != len(pts) {
		t.Errorf("members cover %d points, want %d", total, len(pts))
	}
}

func TestHierarchicalCutoffInvariant(t *testing.T) {
	// After clustering, no two centroids may be within D of each other.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + r.Intn(100)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: r.Float64() * 400, Y: r.Float64() * 400}
		}
		const d = 40.0
		cs := Hierarchical(pts, d)
		for i := range cs {
			for j := i + 1; j < len(cs); j++ {
				if geo.Dist(cs[i].Centroid, cs[j].Centroid) <= d {
					return false
				}
			}
		}
		// Every input point appears in exactly one cluster.
		seen := make(map[int]bool)
		for _, c := range cs {
			for _, m := range c.Members {
				if seen[m] {
					return false
				}
				seen[m] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestHierarchicalNonPositiveDistance(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}
	cs := Hierarchical(pts, 0)
	if len(cs) != 2 {
		t.Errorf("d=0 should keep singletons, got %d clusters", len(cs))
	}
}

func TestHierarchicalWeightedCentroid(t *testing.T) {
	// A weight-3 point at x=0 merged with a weight-1 point at x=20 lands at x=5.
	pts := []WeightedPoint{
		{P: geo.Point{X: 0, Y: 0}, W: 3},
		{P: geo.Point{X: 20, Y: 0}, W: 1},
	}
	cs := HierarchicalWeighted(pts, 40)
	if len(cs) != 1 {
		t.Fatalf("got %d clusters, want 1", len(cs))
	}
	if cs[0].Centroid.X != 5 || cs[0].Weight != 4 {
		t.Errorf("weighted merge: centroid %v weight %v, want x=5 w=4", cs[0].Centroid, cs[0].Weight)
	}
}

func TestHierarchicalWeightedZeroWeightDefaultsToOne(t *testing.T) {
	pts := []WeightedPoint{
		{P: geo.Point{X: 0, Y: 0}, W: 0},
		{P: geo.Point{X: 10, Y: 0}, W: 0},
	}
	cs := HierarchicalWeighted(pts, 40)
	if len(cs) != 1 || cs[0].Centroid.X != 5 {
		t.Errorf("zero weights should default to 1: %+v", cs)
	}
}

func TestHierarchicalChainMerging(t *testing.T) {
	// A chain of points each 30 m apart with D=40: centroid linkage merges
	// greedily, and the resulting centroids must still respect the cutoff.
	var pts []geo.Point
	for i := 0; i < 10; i++ {
		pts = append(pts, geo.Point{X: float64(i) * 30, Y: 0})
	}
	cs := Hierarchical(pts, 40)
	for i := range cs {
		for j := i + 1; j < len(cs); j++ {
			if geo.Dist(cs[i].Centroid, cs[j].Centroid) <= 40 {
				t.Fatalf("centroids %v and %v within cutoff", cs[i].Centroid, cs[j].Centroid)
			}
		}
	}
}

func TestHierarchicalMergesClosestFirst(t *testing.T) {
	// Three points: a and b are 10 m apart, c is 35 m from their midpoint.
	// Closest-first merging joins a+b first; the merged centroid is then
	// within 40 m of c, so everything collapses to one cluster.
	pts := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 40, Y: 0}}
	cs := Hierarchical(pts, 40)
	if len(cs) != 1 {
		t.Fatalf("got %d clusters, want 1", len(cs))
	}
	if len(cs[0].Members) != 3 {
		t.Errorf("cluster members = %v, want all 3", cs[0].Members)
	}
}

func TestHierarchicalMatchesNaiveImplementation(t *testing.T) {
	// Compare against a straightforward O(n^3) reference: the same clusters,
	// each with the same centroid bit for bit, weight and member set. The
	// merge arithmetic is what an installed seal record carries.
	type cl struct {
		c       geo.Point
		w       float64
		members []int
	}
	naive := func(pts []geo.Point, d float64) []cl {
		var cs []cl
		for i, p := range pts {
			cs = append(cs, cl{p, 1, []int{i}})
		}
		for {
			bi, bj, bd := -1, -1, d
			for i := range cs {
				for j := i + 1; j < len(cs); j++ {
					if dd := geo.Dist(cs[i].c, cs[j].c); dd <= bd {
						bi, bj, bd = i, j, dd
					}
				}
			}
			if bi < 0 {
				break
			}
			w := cs[bi].w + cs[bj].w
			m := geo.Point{
				X: (cs[bi].c.X*cs[bi].w + cs[bj].c.X*cs[bj].w) / w,
				Y: (cs[bi].c.Y*cs[bi].w + cs[bj].c.Y*cs[bj].w) / w,
			}
			cs[bi] = cl{m, w, append(cs[bi].members, cs[bj].members...)}
			cs = append(cs[:bj], cs[bj+1:]...)
		}
		return cs
	}
	byCentroid := func(a, b cl) int {
		if c := cmp.Compare(a.c.X, b.c.X); c != 0 {
			return c
		}
		return cmp.Compare(a.c.Y, b.c.Y)
	}
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 20 + r.Intn(40)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: r.Float64() * 300, Y: r.Float64() * 300}
		}
		var got []cl
		for _, c := range Hierarchical(pts, 40) {
			members := slices.Clone(c.Members)
			slices.Sort(members)
			got = append(got, cl{c.Centroid, c.Weight, members})
		}
		want := naive(pts, 40)
		for i := range want {
			slices.Sort(want[i].members)
		}
		slices.SortFunc(got, byCentroid)
		slices.SortFunc(want, byCentroid)
		if len(got) != len(want) {
			t.Fatalf("trial %d: fast=%d clusters naive=%d", trial, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.c != w.c || g.w != w.w || !slices.Equal(g.members, w.members) {
				t.Fatalf("trial %d: cluster %d is %+v, the naive run's %+v", trial, i, g, w)
			}
		}
	}
}
