package cluster

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"dlinfma/internal/geo"
)

// CentroidIndex is centroid-linkage agglomeration with cutoff d that
// continues across calls: Add new weighted points, then MergeNew merges them
// with each other and with the points already alive until no two alive
// centroids are within d. Alive ids are kept in d-sized cells, each cell's
// ids ascending; an id leaves its cell when it is merged away.
//
// MergeNew starts from the new points' neighbourhood, not from every alive
// point, and still agrees exactly with HierarchicalWeighted over the whole
// alive set. The argument rests on one invariant: after a MergeNew, no two
// alive centroids are within d. The full run seeds its heap row by row in
// ascending id order, each row pushing the pairs within d of a larger id in
// its 3×3 cell block. With the invariant, only two kinds of row push
// anything: a new point's, and an old point's that has a new point in its
// 3×3 block. Seeding exactly those rows, ascending, pushes the full run's
// pairs in the full run's order, so the heap, the pops, the merges and the
// ids they create are the same. Chains of merges that reach further out come
// from pushPairs, as in the full run.
type CentroidIndex struct {
	d     float64
	items []mergeItem
	// cells is nil in an index only ever replayed into (ReplayHierarchical's):
	// no search reads it.
	cells map[[2]int32][]int
}

// mergeItem is one centroid of the index; alive items sit in their cell. A
// merged-away id keeps its slot, so ids stay the positions of items.
type mergeItem struct {
	centroid geo.Point
	weight   float64
	alive    bool
}

// Merged is one item a MergeNew call created and left alive: its Members are
// the ids, alive when the call began, merged into it (in centroid-linkage
// merge order, as HierarchicalWeighted reports them), and ID is the id it is
// alive under from now on.
type Merged struct {
	ID int
	Cluster
}

// NewCentroidIndex returns an empty index with cutoff d. A non-positive d
// merges nothing.
func NewCentroidIndex(d float64) *CentroidIndex {
	return &CentroidIndex{d: d, cells: make(map[[2]int32][]int)}
}

// Add inserts p as an alive item and returns its id: ids count up from 0 in
// the order items are added or created by merges. A non-positive weight
// counts as 1.
func (x *CentroidIndex) Add(p WeightedPoint) int {
	w := p.W
	if w <= 0 {
		w = 1
	}
	id := len(x.items)
	x.items = append(x.items, mergeItem{centroid: p.P, weight: w, alive: true})
	if x.d > 0 && x.cells != nil {
		k := x.key(p.P)
		x.cells[k] = append(x.cells[k], id)
	}
	return id
}

// Len is the number of ids issued so far: the id the next Add returns.
func (x *CentroidIndex) Len() int { return len(x.items) }

// Pair is one merge decision: the ids of the two alive centroids merged, in
// the order the merge took them (A's members come first in the merged
// item). MergeNew reports the pairs it merged, and ReplayMerges makes them
// again.
type Pair struct{ A, B int32 }

// MergeNew merges the alive items with ids from first on — the points added
// since the last call — into the alive set, and reports the items it
// created that are still alive at the end, in creation order, and the pairs
// it merged, in merge order.
func (x *CentroidIndex) MergeNew(first int) ([]Merged, []Pair) {
	if x.d <= 0 || first >= len(x.items) {
		return nil, nil
	}
	// The rows that can push a pair: the old items sharing a 3×3 cell block
	// with a new one, then the new ones, ascending.
	var rows []int
	for id := first; id < len(x.items); id++ {
		k := x.key(x.items[id].centroid)
		for dy := int32(-1); dy <= 1; dy++ {
			for dx := int32(-1); dx <= 1; dx++ {
				for _, o := range x.cells[[2]int32{k[0] + dx, k[1] + dy}] {
					if o >= first {
						break
					}
					rows = append(rows, o)
				}
			}
		}
	}
	slices.Sort(rows)
	rows = slices.Compact(rows)
	for id := first; id < len(x.items); id++ {
		if x.items[id].alive {
			rows = append(rows, id)
		}
	}
	var h pairHeap
	for _, i := range rows {
		c := x.items[i].centroid
		k := x.key(c)
		for dy := int32(-1); dy <= 1; dy++ {
			for dx := int32(-1); dx <= 1; dx++ {
				for _, o := range x.cells[[2]int32{k[0] + dx, k[1] + dy}] {
					if o <= i {
						continue
					}
					if dist := geo.Dist(c, x.items[o].centroid); dist <= x.d {
						h.push(pairEntry{dist: dist, a: i, b: o})
					}
				}
			}
		}
	}

	run := mergeRun{start: len(x.items)}
	var pairs []Pair
	for len(h) > 0 {
		e := h.pop()
		if !x.items[e.a].alive || !x.items[e.b].alive {
			continue // stale entry
		}
		pairs = append(pairs, Pair{A: int32(e.a), B: int32(e.b)})
		x.pushPairs(&h, x.merge(&run, e.a, e.b))
	}
	return x.created(&run), pairs
}

// ReplayMerges makes the merges MergeNew reported as pairs, on an index in
// the state MergeNew ran on, without searching for them: each goes through
// the merge step MergeNew takes, so the items, the cells and the Merged it
// returns are MergeNew's bit for bit. It refuses a pair naming an id not
// issued or no longer alive, one id twice, or two centroids farther apart
// than the cutoff; the merges before the refused one stay made.
func (x *CentroidIndex) ReplayMerges(pairs []Pair) ([]Merged, error) {
	if len(pairs) > 0 && x.d <= 0 {
		return nil, errors.New("merges replayed with a non-positive cutoff")
	}
	run := mergeRun{start: len(x.items)}
	for i, p := range pairs {
		a, b := int(p.A), int(p.B)
		switch {
		case a == b:
			return nil, fmt.Errorf("merge %d pairs id %d with itself", i, a)
		case a < 0 || b < 0 || a >= len(x.items) || b >= len(x.items):
			return nil, fmt.Errorf("merge %d names id %d or %d of %d issued", i, a, b, len(x.items))
		case !x.items[a].alive || !x.items[b].alive:
			return nil, fmt.Errorf("merge %d names id %d or %d, merged away", i, a, b)
		}
		if dist := geo.Dist(x.items[a].centroid, x.items[b].centroid); !(dist <= x.d) {
			return nil, fmt.Errorf("merge %d pairs ids %d and %d, %g apart, past the cutoff %g", i, a, b, dist, x.d)
		}
		x.merge(&run, a, b)
	}
	return x.created(&run), nil
}

// mergeRun is one MergeNew or ReplayMerges call's record of its merges:
// ids from start on are created by the call, and members[id-start] lists
// the ids, alive when the call began, merged into id.
type mergeRun struct {
	start   int
	members [][]int
}

// merge is the one merge step, MergeNew's and ReplayMerges': it merges the
// alive items a and b into a new item at their weighted centroid and
// returns its id.
func (x *CentroidIndex) merge(run *mergeRun, a, b int) int {
	ia, ib := &x.items[a], &x.items[b]
	ia.alive, ib.alive = false, false
	if x.cells != nil {
		x.unlink(a, ia.centroid)
		x.unlink(b, ib.centroid)
	}
	w := ia.weight + ib.weight
	c := geo.Point{
		X: (ia.centroid.X*ia.weight + ib.centroid.X*ib.weight) / w,
		Y: (ia.centroid.Y*ia.weight + ib.centroid.Y*ib.weight) / w,
	}
	start, members := run.start, run.members
	m := make([]int, 0, nMembers(members, a, start)+nMembers(members, b, start))
	m = appendMembers(m, members, a, start)
	m = appendMembers(m, members, b, start)
	if a >= start {
		members[a-start] = nil
	}
	if b >= start {
		members[b-start] = nil
	}
	id := len(x.items)
	x.items = append(x.items, mergeItem{centroid: c, weight: w, alive: true})
	run.members = append(members, m)
	if x.cells != nil {
		k := x.key(c)
		x.cells[k] = append(x.cells[k], id)
	}
	return id
}

// created lists the items run created that are still alive, in creation
// order.
func (x *CentroidIndex) created(run *mergeRun) []Merged {
	var out []Merged
	for id := run.start; id < len(x.items); id++ {
		if it := &x.items[id]; it.alive {
			out = append(out, Merged{ID: id, Cluster: Cluster{Centroid: it.centroid, Members: run.members[id-run.start], Weight: it.weight}})
		}
	}
	return out
}

func (x *CentroidIndex) key(p geo.Point) [2]int32 {
	return [2]int32{int32(math.Floor(p.X / x.d)), int32(math.Floor(p.Y / x.d))}
}

// unlink removes a merged-away id from its cell, keeping the cell ascending.
func (x *CentroidIndex) unlink(id int, c geo.Point) {
	k := x.key(c)
	cell := x.cells[k]
	if i, ok := slices.BinarySearch(cell, id); ok {
		x.cells[k] = slices.Delete(cell, i, i+1)
	}
}

// nMembers is how many members id brings to a merge in the MergeNew call
// whose first created id is start.
func nMembers(members [][]int, id, start int) int {
	if id < start {
		return 1
	}
	return len(members[id-start])
}

func appendMembers(dst []int, members [][]int, id, start int) []int {
	if id < start {
		return append(dst, id)
	}
	return append(dst, members[id-start]...)
}

// pushPairs pushes every alive item within d of the just-created item id.
func (x *CentroidIndex) pushPairs(h *pairHeap, id int) {
	c := x.items[id].centroid
	k := x.key(c)
	for dy := int32(-1); dy <= 1; dy++ {
		for dx := int32(-1); dx <= 1; dx++ {
			for _, o := range x.cells[[2]int32{k[0] + dx, k[1] + dy}] {
				if o == id {
					continue
				}
				if dist := geo.Dist(c, x.items[o].centroid); dist <= x.d {
					h.push(pairEntry{dist: dist, a: id, b: o})
				}
			}
		}
	}
}

// pairEntry is a candidate merge in the lazy priority queue. It goes stale
// once a or b has merged away.
type pairEntry struct {
	dist float64
	a, b int
}

// pairHeap is a binary min-heap on dist. push and pop are container/heap's
// Push and Pop with the interface calls written out: the same comparisons
// and swaps in the same order, so pairs at equal distance leave in the order
// container/heap releases them, and the merge order they decide is kept.
type pairHeap []pairEntry

func (h *pairHeap) push(e pairEntry) {
	*h = append(*h, e)
	s := *h
	j := len(s) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *pairHeap) pop() pairEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s[j2].dist < s[j1].dist {
			j = j2 // right child
		}
		if !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	e := s[n]
	*h = s[:n]
	return e
}
