// Package cluster implements the clustering algorithms the paper uses or
// compares against for candidate pool construction — centroid-linkage
// hierarchical clustering with a distance cutoff (the paper's choice,
// Section III-B), DBSCAN (the GeoCloud baseline), and grid merging (the
// DLInfMA-Grid variant).
package cluster

import "dlinfma/internal/geo"

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
	return HierarchicalWeighted(items, d)
}

// WeightedPoint is an input to HierarchicalWeighted: a point standing for W
// underlying observations.
type WeightedPoint struct {
	P geo.Point
	W float64
}

// HierarchicalWeighted is Hierarchical over weighted points: merged centroids
// are weight-averaged. It is a CentroidIndex that merges every point as new,
// so the pool builder's window-by-window merges run the same loop.
func HierarchicalWeighted(pts []WeightedPoint, d float64) []Cluster {
	n := len(pts)
	if n == 0 {
		return nil
	}
	if d <= 0 {
		out := make([]Cluster, n)
		for i, p := range pts {
			out[i] = Cluster{Centroid: p.P, Members: []int{i}, Weight: p.W}
		}
		return out
	}
	x := NewCentroidIndex(d)
	x.items = make([]mergeItem, 0, n)
	for _, p := range pts {
		x.Add(p)
	}
	merged := x.MergeNew(0)
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
