// Package cluster implements the clustering algorithms the paper uses or
// compares against for candidate pool construction — centroid-linkage
// hierarchical clustering with a distance cutoff (the paper's choice,
// Section III-B), DBSCAN (the GeoCloud baseline), and grid merging (the
// DLInfMA-Grid variant).
package cluster

import (
	"fmt"

	"dlinfma/internal/geo"
)

// Cluster is a group of input points represented by its centroid.
type Cluster struct {
	Centroid geo.Point
	Members  []int   // indices into the input point slice
	Weight   float64 // number of underlying points (> len(Members) after pool merges)
}

// Hierarchical performs centroid-linkage agglomerative clustering with
// distance cutoff d: starting from singleton clusters, it repeatedly merges
// the two clusters whose centroids are closest, until no two centroids are
// within d of each other. This is the paper's candidate-pool construction
// algorithm (D = 40 m by default).
//
// The implementation uses a lazy pair heap plus a uniform cell grid over
// centroids, so only pairs within d are ever considered; runtime is
// O(m log m) in the number of candidate pairs for geographically dispersed
// inputs.
func Hierarchical(pts []geo.Point, d float64) []Cluster {
	items := make([]WeightedPoint, len(pts))
	for i, p := range pts {
		items[i] = WeightedPoint{P: p, W: 1}
	}
	cs, _ := HierarchicalWeighted(items, d)
	return cs
}

// WeightedPoint is an input to HierarchicalWeighted: a point standing for W
// underlying observations.
type WeightedPoint struct {
	P geo.Point
	W float64
}

// HierarchicalWeighted is Hierarchical over weighted points: merged centroids
// are weight-averaged. It is a CentroidIndex that merges every point as new,
// so the pool builder's window-by-window merges run the same loop, and it
// also returns the pairs that index merged, in merge order, for
// ReplayHierarchical.
func HierarchicalWeighted(pts []WeightedPoint, d float64) ([]Cluster, []Pair) {
	if len(pts) == 0 || d <= 0 {
		return singletons(pts), nil
	}
	x := indexOf(pts, NewCentroidIndex(d))
	merged, pairs := x.MergeNew(0)
	return x.clusters(len(pts), merged), pairs
}

// ReplayHierarchical is HierarchicalWeighted(pts, d) given the pairs that
// call returned: it makes the merges without searching for them
// (CentroidIndex.ReplayMerges) and returns the same clusters, bit for bit.
// Pairs that do not apply to pts are an error.
func ReplayHierarchical(pts []WeightedPoint, d float64, pairs []Pair) ([]Cluster, error) {
	if len(pts) == 0 || d <= 0 {
		if len(pairs) > 0 {
			return nil, fmt.Errorf("%d merges replayed over %d points at cutoff %g", len(pairs), len(pts), d)
		}
		return singletons(pts), nil
	}
	x := indexOf(pts, &CentroidIndex{d: d})
	merged, err := x.ReplayMerges(pairs)
	if err != nil {
		return nil, err
	}
	return x.clusters(len(pts), merged), nil
}

// singletons is every point its own cluster; nil for none.
func singletons(pts []WeightedPoint) []Cluster {
	if len(pts) == 0 {
		return nil
	}
	out := make([]Cluster, len(pts))
	for i, p := range pts {
		out[i] = Cluster{Centroid: p.P, Members: []int{i}, Weight: p.W}
	}
	return out
}

// indexOf adds pts to the empty index x, under ids 0..len(pts)-1.
func indexOf(pts []WeightedPoint, x *CentroidIndex) *CentroidIndex {
	x.items = make([]mergeItem, 0, len(pts))
	for _, p := range pts {
		x.Add(p)
	}
	return x
}

// clusters lists the n points still alive as singletons, in id order, then
// the merged clusters.
func (x *CentroidIndex) clusters(n int, merged []Merged) []Cluster {
	var out []Cluster
	for i := 0; i < n; i++ {
		if it := &x.items[i]; it.alive {
			out = append(out, Cluster{Centroid: it.centroid, Members: []int{i}, Weight: it.weight})
		}
	}
	for _, m := range merged {
		out = append(out, m.Cluster)
	}
	return out
}
