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
	// cells holds the non-empty cells only: a cell emptied by a merge
	// leaves the map, so an index's cells depend on its alive items alone.
	cells map[[2]int32][]int
}

// mergeItem is one centroid of the index; alive items sit in their cell. A
// merged-away id keeps its slot, zeroed (nothing reads it again), so ids
// stay the positions of items.
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
	if x.d > 0 {
		x.link(id)
	}
	return id
}

// Len is the number of ids issued so far: the id the next Add returns.
func (x *CentroidIndex) Len() int { return len(x.items) }

// MergeNew merges the alive items with ids from first on — the points added
// since the last call — into the alive set, and reports the items it
// created that are still alive at the end, in creation order.
func (x *CentroidIndex) MergeNew(first int) []Merged {
	if x.d <= 0 || first >= len(x.items) {
		return nil
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

	// Ids from start on are created by this call; members[id-start] lists
	// the ids, alive when the call began, merged into id.
	start := len(x.items)
	var members [][]int
	for len(h) > 0 {
		e := h.pop()
		ia, ib := &x.items[e.a], &x.items[e.b]
		if !ia.alive || !ib.alive {
			continue // stale entry
		}
		// Merge a and b into a new item.
		x.unlink(e.a, ia.centroid)
		x.unlink(e.b, ib.centroid)
		w := ia.weight + ib.weight
		c := geo.Point{
			X: (ia.centroid.X*ia.weight + ib.centroid.X*ib.weight) / w,
			Y: (ia.centroid.Y*ia.weight + ib.centroid.Y*ib.weight) / w,
		}
		*ia, *ib = mergeItem{}, mergeItem{}
		m := make([]int, 0, nMembers(members, e.a, start)+nMembers(members, e.b, start))
		m = appendMembers(m, members, e.a, start)
		m = appendMembers(m, members, e.b, start)
		if e.a >= start {
			members[e.a-start] = nil
		}
		if e.b >= start {
			members[e.b-start] = nil
		}
		id := len(x.items)
		x.items = append(x.items, mergeItem{centroid: c, weight: w, alive: true})
		members = append(members, m)
		x.link(id)
		x.pushPairs(&h, id)
	}

	var out []Merged
	for id := start; id < len(x.items); id++ {
		if it := &x.items[id]; it.alive {
			out = append(out, Merged{ID: id, Cluster: Cluster{Centroid: it.centroid, Members: members[id-start], Weight: it.weight}})
		}
	}
	return out
}

// Install is Add of every point of pts, then the MergeNew call over them
// that reported merged, made without searching or merging: each reported
// item's members leave the alive set (their slots zeroed), the ids the call
// issued are issued, and each reported item is alive under its id, so the
// index is the searched one, field for field. An item of k members took k-1
// merges, each issuing an id, and the call's last id went to a reported
// item. Install refuses a report that cannot be such a call's: an item of
// fewer than two members, ids not ascending or past the ids the merges
// issued, a last id short of them, or a member not issued before the call
// or merged away (one member twice among them). After a refusal the index
// is partly installed and must not be used.
func (x *CentroidIndex) Install(pts []WeightedPoint, merged []Merged) error {
	if len(merged) > 0 && x.d <= 0 {
		return errors.New("merges installed with a non-positive cutoff")
	}
	// The points go in unlinked: most are members below, and a cell holds
	// the alive ids only.
	start := len(x.items)
	for _, p := range pts {
		w := p.W
		if w <= 0 {
			w = 1
		}
		x.items = append(x.items, mergeItem{centroid: p.P, weight: w, alive: true})
	}
	added, end := len(x.items), len(x.items)
	for i, m := range merged {
		if len(m.Members) < 2 {
			return fmt.Errorf("item %d absorbed %d ids", i, len(m.Members))
		}
		end += len(m.Members) - 1
	}
	for i, m := range merged {
		if m.ID < len(x.items) || m.ID >= end {
			return fmt.Errorf("item %d has id %d; ids %d to %d are open to it", i, m.ID, len(x.items), end-1)
		}
		for _, id := range m.Members {
			if id < 0 || id >= added {
				return fmt.Errorf("item %d absorbed id %d of %d issued before", i, id, added)
			}
			it := &x.items[id]
			if !it.alive {
				return fmt.Errorf("item %d absorbed id %d, merged away", i, id)
			}
			if id < start {
				x.unlink(id, it.centroid)
			}
			*it = mergeItem{}
		}
		for len(x.items) < m.ID {
			x.items = append(x.items, mergeItem{}) // merged away within the call
		}
		x.items = append(x.items, mergeItem{centroid: m.Centroid, weight: m.Weight, alive: true})
	}
	if len(x.items) != end {
		return fmt.Errorf("the items took %d merges; the last kept one is merge %d", end-added, len(x.items)-added)
	}
	if x.d > 0 {
		// Ascending: the points left alive, then the reported items.
		for id := start; id < added; id++ {
			if x.items[id].alive {
				x.link(id)
			}
		}
		for _, m := range merged {
			x.link(m.ID)
		}
	}
	return nil
}

func (x *CentroidIndex) key(p geo.Point) [2]int32 {
	return [2]int32{int32(math.Floor(p.X / x.d)), int32(math.Floor(p.Y / x.d))}
}

// link puts the alive id in its cell, whose ids it exceeds.
func (x *CentroidIndex) link(id int) {
	k := x.key(x.items[id].centroid)
	x.cells[k] = append(x.cells[k], id)
}

// unlink removes a merged-away id from its cell, keeping the cell ascending
// and dropping it once empty.
func (x *CentroidIndex) unlink(id int, c geo.Point) {
	k := x.key(c)
	cell := x.cells[k]
	if i, ok := slices.BinarySearch(cell, id); ok {
		if len(cell) == 1 {
			delete(x.cells, k)
		} else {
			x.cells[k] = slices.Delete(cell, i, i+1)
		}
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
