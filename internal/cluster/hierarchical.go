// Package cluster implements the clustering algorithms the paper uses or
// compares against for candidate pool construction — centroid-linkage
// hierarchical clustering with a distance cutoff (the paper's choice,
// Section III-B), DBSCAN (the GeoCloud baseline), and grid merging (the
// DLInfMA-Grid variant).
package cluster

import (
	"container/heap"
	"math"

	"dlinfma/internal/geo"
)

// Cluster is a group of input points represented by its centroid.
type Cluster struct {
	Centroid geo.Point
	Members  []int   // indices into the input point slice
	Weight   float64 // number of underlying points (> len(Members) after pool merges)
}

// mergeItem is one active cluster during agglomeration.
type mergeItem struct {
	centroid geo.Point
	members  []int
	weight   float64
	version  int  // bumped on every merge so heap entries can detect staleness
	alive    bool // false once merged into another cluster
}

// pairEntry is a candidate merge in the lazy priority queue.
type pairEntry struct {
	dist   float64
	a, b   int
	av, bv int // versions of a and b at push time
}

type pairHeap []pairEntry

func (h pairHeap) Len() int            { return len(h) }
func (h pairHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h pairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x interface{}) { *h = append(*h, x.(pairEntry)) }
func (h *pairHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// cellGrid tracks alive cluster ids by spatial cell for neighbor discovery.
// Entries are append-only; readers filter out dead or moved clusters.
type cellGrid struct {
	cell  float64
	cells map[[2]int32][]int
}

func newCellGrid(cell float64) *cellGrid {
	return &cellGrid{cell: cell, cells: make(map[[2]int32][]int)}
}

func (g *cellGrid) key(p geo.Point) [2]int32 {
	return [2]int32{int32(math.Floor(p.X / g.cell)), int32(math.Floor(p.Y / g.cell))}
}

func (g *cellGrid) add(id int, p geo.Point) {
	k := g.key(p)
	g.cells[k] = append(g.cells[k], id)
}

// neighbors appends to dst the ids stored in the 3x3 cell block around p.
// The result may contain dead or moved clusters; callers must verify.
func (g *cellGrid) neighbors(p geo.Point, dst []int) []int {
	k := g.key(p)
	for dy := int32(-1); dy <= 1; dy++ {
		for dx := int32(-1); dx <= 1; dx++ {
			dst = append(dst, g.cells[[2]int32{k[0] + dx, k[1] + dy}]...)
		}
	}
	return dst
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
// are weight-averaged. It powers the paper's bi-weekly incremental pool
// maintenance, where previously generated candidates (carrying their stay
// point counts as weights) are re-clustered together with the new batch.
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
	items := make([]mergeItem, n)
	grid := newCellGrid(d)
	for i, p := range pts {
		w := p.W
		if w <= 0 {
			w = 1
		}
		items[i] = mergeItem{centroid: p.P, members: []int{i}, weight: w, alive: true}
		grid.add(i, p.P)
	}

	h := &pairHeap{}
	var scratch []int
	pushPairs := func(id int) {
		scratch = grid.neighbors(items[id].centroid, scratch[:0])
		for _, o := range scratch {
			if o == id || !items[o].alive {
				continue
			}
			dist := geo.Dist(items[id].centroid, items[o].centroid)
			if dist <= d {
				a, b := id, o
				heap.Push(h, pairEntry{dist: dist, a: a, b: b, av: items[a].version, bv: items[b].version})
			}
		}
	}
	for i := range items {
		// Push each pair once by ordering on id.
		scratch = grid.neighbors(items[i].centroid, scratch[:0])
		for _, o := range scratch {
			if o <= i {
				continue
			}
			dist := geo.Dist(items[i].centroid, items[o].centroid)
			if dist <= d {
				heap.Push(h, pairEntry{dist: dist, a: i, b: o, av: 0, bv: 0})
			}
		}
	}

	next := n // ids for newly created clusters
	for h.Len() > 0 {
		e := heap.Pop(h).(pairEntry)
		ia, ib := &items[e.a], &items[e.b]
		if !ia.alive || !ib.alive || ia.version != e.av || ib.version != e.bv {
			continue // stale entry
		}
		// Merge b into a new cluster.
		ia.alive = false
		ib.alive = false
		w := ia.weight + ib.weight
		c := geo.Point{
			X: (ia.centroid.X*ia.weight + ib.centroid.X*ib.weight) / w,
			Y: (ia.centroid.Y*ia.weight + ib.centroid.Y*ib.weight) / w,
		}
		members := make([]int, 0, len(ia.members)+len(ib.members))
		members = append(members, ia.members...)
		members = append(members, ib.members...)
		items = append(items, mergeItem{centroid: c, members: members, weight: w, alive: true})
		grid.add(next, c)
		pushPairs(next)
		next++
	}

	var out []Cluster
	for _, it := range items {
		if it.alive {
			out = append(out, Cluster{Centroid: it.centroid, Members: it.members, Weight: it.weight})
		}
	}
	return out
}
