package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dlinfma/internal/geo"
)

func TestGridMergeBasic(t *testing.T) {
	pts := []geo.Point{
		{X: 5, Y: 5}, {X: 8, Y: 6}, // same 40m cell
		{X: 100, Y: 100}, // different cell
	}
	cs := GridMerge(pts, 40)
	if len(cs) != 2 {
		t.Fatalf("got %d clusters, want 2", len(cs))
	}
}

func TestGridMergeBoundarySplit(t *testing.T) {
	// Two points 2 m apart straddling a cell boundary split into two
	// clusters — the deficiency the paper ascribes to grid merging.
	pts := []geo.Point{{X: 39, Y: 0}, {X: 41, Y: 0}}
	cs := GridMerge(pts, 40)
	if len(cs) != 2 {
		t.Errorf("boundary points merged into %d clusters, want 2 (split artifact)", len(cs))
	}
}

func TestGridMergeEmptyAndInvalid(t *testing.T) {
	if got := GridMerge(nil, 40); got != nil {
		t.Errorf("GridMerge(nil) = %v", got)
	}
	cs := GridMerge([]geo.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}, 0)
	if len(cs) != 2 {
		t.Errorf("d=0 should keep singletons, got %d", len(cs))
	}
}

func TestGridMergeCoversAllPoints(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: r.Float64()*1000 - 500, Y: r.Float64()*1000 - 500}
		}
		cs := GridMerge(pts, 40)
		seen := make(map[int]bool)
		for _, c := range cs {
			// Each cluster extent is bounded by the cell size.
			var member []geo.Point
			for _, m := range c.Members {
				if seen[m] {
					return false
				}
				seen[m] = true
				member = append(member, pts[m])
			}
			r := geo.BoundingRect(member)
			if r.Width() > 40 || r.Height() > 40 {
				return false
			}
			r.MinX, r.MinY, r.MaxX, r.MaxY = r.MinX-1e-9, r.MinY-1e-9, r.MaxX+1e-9, r.MaxY+1e-9
			if !r.Contains(c.Centroid) {
				return false
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGridMergeDeterministicOrder(t *testing.T) {
	pts := []geo.Point{{X: 100, Y: 100}, {X: 0, Y: 0}, {X: 200, Y: 0}}
	a := GridMerge(pts, 40)
	b := GridMerge(pts, 40)
	if len(a) != len(b) {
		t.Fatal("nondeterministic cluster count")
	}
	for i := range a {
		if a[i].Centroid != b[i].Centroid {
			t.Fatalf("nondeterministic order at %d", i)
		}
	}
}

func TestGridMergeProducesMoreClustersThanHierarchical(t *testing.T) {
	// The paper observes grid merging yields many more locations than
	// hierarchical clustering on the same stay points. Generate dense
	// clusters that straddle boundaries to reproduce the effect.
	r := rand.New(rand.NewSource(3))
	var pts []geo.Point
	for c := 0; c < 30; c++ {
		cx, cy := r.Float64()*2000, r.Float64()*2000
		for i := 0; i < 10; i++ {
			pts = append(pts, geo.Point{X: cx + r.NormFloat64()*8, Y: cy + r.NormFloat64()*8})
		}
	}
	ng := len(GridMerge(pts, 40))
	nh := len(Hierarchical(pts, 40))
	if ng < nh {
		t.Errorf("grid=%d hierarchical=%d: expected grid >= hierarchical", ng, nh)
	}
}
