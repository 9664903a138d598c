package cluster

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dlinfma/internal/geo"
)

// refHeap is the container/heap min-heap on dist that pairHeap replaces:
// the oracle for the order tied pairs leave in.
type refHeap []pairEntry

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(pairEntry)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func TestPairHeapPopsInContainerHeapOrder(t *testing.T) {
	// Each script pushes its distances in order (a counts the pushes, so
	// equal distances are told apart by it); -1 pops one entry. Whatever is
	// left is drained at the end.
	nan := math.NaN()
	cases := []struct {
		name   string
		script []float64
	}{
		{"all equal", []float64{5, 5, 5, 5, 5, 5, 5, 5, 5}},
		{"all equal, pops between", []float64{3, 3, 3, -1, 3, 3, -1, -1, 3, 3, 3, -1}},
		{"two values alternating", []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2, -1, 1, 2, -1, -1}},
		{"descending runs of ties", []float64{9, 9, 8, 8, 7, 7, 6, 6, -1, 5, 5, -1, 9, 8}},
		{"ascending with ties", []float64{0, 0, 1, 1, 1, 2, 2, 3, -1, -1, 0, 0}},
		{"zero distances", []float64{0, 0, 0, -1, 0, -1, 0, 0}},
		{"NaN compares false", []float64{4, nan, 4, 2, nan, -1, 2, 4, -1}},
		{"single", []float64{7}},
		{"empty", nil},
	}
	// Plus seeded scripts over three distinct distances.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		var s []float64
		for j := 0; j < 200; j++ {
			if r.Intn(3) == 0 {
				s = append(s, -1)
			} else {
				s = append(s, float64(r.Intn(3)))
			}
		}
		cases = append(cases, struct {
			name   string
			script []float64
		}{"seeded", s})
	}
	for _, tc := range cases {
		var got pairHeap
		want := &refHeap{}
		var gotOrder, wantOrder []int
		for i, v := range tc.script {
			if v == -1 {
				if len(got) > 0 {
					gotOrder = append(gotOrder, got.pop().a)
					wantOrder = append(wantOrder, heap.Pop(want).(pairEntry).a)
				}
				continue
			}
			e := pairEntry{dist: v, a: i, b: -i}
			got.push(e)
			heap.Push(want, e)
		}
		for len(got) > 0 {
			gotOrder = append(gotOrder, got.pop().a)
			wantOrder = append(wantOrder, heap.Pop(want).(pairEntry).a)
		}
		if want.Len() != 0 || !slices.Equal(gotOrder, wantOrder) {
			t.Errorf("%s: popped %v, container/heap pops %v", tc.name, gotOrder, wantOrder)
		}
	}
}

// mergeWindows generates the windows of weighted points a fuzz input
// stands for: 1-8 windows of 1-30 points in a square a few cutoffs wide, so
// windows land on each other's candidates. mode bit 0 snaps every
// coordinate to a quarter of the cutoff (tied distances everywhere), bit 1
// opens with a triangular lattice of points just over the cutoff apart
// (merging any two of them brings their centroid within the cutoff of
// their common neighbours), bit 2 draws fractional weights, and bit 3
// opens with a zigzag of ten points just over the cutoff apart, each four
// times heavier than the last, followed by a window of one point near the
// light end: each merge drags the centroid within the cutoff of the next
// point, so the chain runs 4.6 cutoffs along, past the new point's 3×3
// cell block.
func mergeWindows(seed int64, windows, mode uint8) (float64, [][]WeightedPoint) {
	r := rand.New(rand.NewSource(seed))
	d := 10 + 50*r.Float64()
	side := d * float64(3+r.Intn(6))
	point := func(x, y float64) WeightedPoint {
		if mode&1 != 0 {
			q := d / 4
			x, y = math.Round(x/q)*q, math.Round(y/q)*q
		}
		w := float64(1 + r.Intn(4))
		if mode&4 != 0 {
			w = 0.25 + 3*r.Float64()
		}
		return WeightedPoint{P: geo.Point{X: x, Y: y}, W: w}
	}
	var out [][]WeightedPoint
	if mode&2 != 0 {
		s := d * (1.01 + 0.1*r.Float64())
		var lattice []WeightedPoint
		for row := 0; float64(row)*s*0.87 < side; row++ {
			for col := 0; float64(col)*s < side; col++ {
				x := float64(col)*s + float64(row%2)*s/2
				lattice = append(lattice, point(x, float64(row)*s*math.Sqrt(3)/2))
			}
		}
		out = append(out, lattice)
	}
	if mode&8 != 0 {
		x0, y0 := r.Float64()*side, r.Float64()*side
		zigzag := make([]WeightedPoint, 10)
		for i := range zigzag {
			zigzag[i] = WeightedPoint{P: geo.Point{X: x0 + float64(i)*0.51*d, Y: y0 + float64(i%2)*0.9*d}, W: math.Pow(4, float64(i))}
		}
		out = append(out, zigzag, []WeightedPoint{{P: geo.Point{X: x0 + 0.2*d, Y: y0 + 0.3*d}, W: 1}})
	}
	for w := 0; w < 1+int(windows%8); w++ {
		win := make([]WeightedPoint, 1+r.Intn(30))
		for i := range win {
			win[i] = point(r.Float64()*side, r.Float64()*side)
		}
		out = append(out, win)
	}
	return d, out
}

// mergeWindow adds win to x, merges it, and holds the outcome to
// HierarchicalWeighted over the alive set (ascending ids alive, before the
// window) plus the window: the same merged clusters, bit for bit and in the
// same order, and the same singletons. It returns the alive ids after the
// merge, whether a merge reached an item outside every new point's 3×3
// cell block, and what MergeNew returned.
func mergeWindow(t *testing.T, x *CentroidIndex, alive []int, win []WeightedPoint) ([]int, bool, []Merged) {
	t.Helper()
	pts := make([]WeightedPoint, 0, len(alive)+len(win))
	for _, id := range alive {
		pts = append(pts, WeightedPoint{P: x.items[id].centroid, W: x.items[id].weight})
	}
	pts = append(pts, win...)
	ids := slices.Clone(alive)
	first := x.Len()
	for _, p := range win {
		ids = append(ids, x.Add(p))
	}
	blocks := map[[2]int32]bool{}
	for id := first; id < x.Len(); id++ {
		k := x.key(x.items[id].centroid)
		for dy := int32(-1); dy <= 1; dy++ {
			for dx := int32(-1); dx <= 1; dx++ {
				blocks[[2]int32{k[0] + dx, k[1] + dy}] = true
			}
		}
	}
	got := x.MergeNew(first)
	want := HierarchicalWeighted(pts, x.d)

	var wantAlive []int
	var wantMerged []Cluster
	for _, c := range want {
		if len(c.Members) == 1 {
			wantAlive = append(wantAlive, ids[c.Members[0]])
		} else {
			wantMerged = append(wantMerged, c)
		}
	}
	if len(got) != len(wantMerged) {
		t.Fatalf("MergeNew created %d clusters, the full run %d", len(got), len(wantMerged))
	}
	far := false
	for j, m := range got {
		w := wantMerged[j]
		members := make([]int, len(w.Members))
		for i, l := range w.Members {
			members[i] = ids[l]
			if l < len(alive) && !blocks[x.key(pts[l].P)] {
				far = true
			}
		}
		if m.Centroid != w.Centroid || m.Weight != w.Weight || !slices.Equal(m.Members, members) {
			t.Fatalf("merged cluster %d: %+v, the full run %+v (members %v)", j, m, w, members)
		}
		wantAlive = append(wantAlive, m.ID)
	}
	var gotAlive []int
	for id, it := range x.items {
		if it.alive {
			gotAlive = append(gotAlive, id)
		}
	}
	if !slices.Equal(gotAlive, wantAlive) {
		t.Fatalf("alive ids %v, the full run leaves %v", gotAlive, wantAlive)
	}
	// Every alive id sits in its own cell, and every cell is ascending.
	n := 0
	for k, cell := range x.cells {
		if !slices.IsSorted(cell) {
			t.Fatalf("cell %v not ascending: %v", k, cell)
		}
		for _, id := range cell {
			if !x.items[id].alive || x.key(x.items[id].centroid) != k {
				t.Fatalf("cell %v holds id %d (alive %v)", k, id, x.items[id].alive)
			}
		}
		n += len(cell)
	}
	if n != len(gotAlive) {
		t.Fatalf("cells hold %d ids, %d are alive", n, len(gotAlive))
	}
	// The merged-away slots hold nothing.
	for id, it := range x.items {
		if !it.alive && it != (mergeItem{}) {
			t.Fatalf("merged-away id %d keeps %+v", id, it)
		}
	}
	return gotAlive, far, got
}

// FuzzMergeNear holds CentroidIndex.MergeNew, window after window, to
// HierarchicalWeighted over everything alive, and a twin index that adds the
// same points and installs what MergeNew reported (Install) to the index
// that searched: the same index, field for field, after every window.
func FuzzMergeNear(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, windows, mode uint8) {
		d, wins := mergeWindows(seed, windows, mode)
		x, twin := NewCentroidIndex(d), NewCentroidIndex(d)
		var alive []int
		for w, win := range wins {
			var merged []Merged
			alive, _, merged = mergeWindow(t, x, alive, win)
			if err := twin.Install(win, merged); err != nil {
				t.Fatalf("window %d: what MergeNew reported does not install: %v", w, err)
			}
			if !reflect.DeepEqual(twin, x) {
				t.Fatalf("window %d: the installed index differs from the searched one", w)
			}
		}
	})
}

// TestInstallRefuses: an item of one member, an id out of order or past
// what the members issued, a member never issued, merged away or taken
// twice are refused, naming the item.
func TestInstallRefuses(t *testing.T) {
	// One point before the call and three added by it.
	index := func() *CentroidIndex {
		x := NewCentroidIndex(10)
		x.Add(WeightedPoint{P: geo.Point{X: 0, Y: 0}, W: 1})
		return x
	}
	var pts []WeightedPoint
	for _, p := range []geo.Point{{X: 5, Y: 0}, {X: 8, Y: 0}, {X: 100, Y: 0}} {
		pts = append(pts, WeightedPoint{P: p, W: 1})
	}
	item := func(id int, w float64, members ...int) Merged {
		return Merged{ID: id, Cluster: Cluster{Centroid: geo.Point{X: 3}, Members: members, Weight: w}}
	}
	for _, tc := range []struct {
		name   string
		merged []Merged
		want   string
	}{
		{"one member", []Merged{item(4, 1, 0)}, "item 0 absorbed 1 ids"},
		{"id past its merges", []Merged{item(5, 2, 0, 1)}, "item 0 has id 5; ids 4 to 4 are open to it"},
		{"ids out of order", []Merged{item(6, 3, 0, 1, 2), item(5, 2, 3, 3)}, "item 1 has id 5; ids 7 to 6 are open to it"},
		{"last id short", []Merged{item(4, 2, 0, 1), item(5, 3, 2, 3, 1)}, "item 1 absorbed id 1, merged away"},
		{"merges left over", []Merged{item(4, 3, 0, 1, 2)}, "the items took 2 merges; the last kept one is merge 1"},
		{"unknown id", []Merged{item(4, 2, 0, 7)}, "item 0 absorbed id 7 of 4 issued before"},
		{"negative id", []Merged{item(4, 2, -1, 0)}, "item 0 absorbed id -1 of 4 issued before"},
		{"twice", []Merged{item(4, 2, 1, 1)}, "item 0 absorbed id 1, merged away"},
		{"merged away", []Merged{item(4, 2, 0, 1), item(5, 2, 1, 2)}, "item 1 absorbed id 1, merged away"},
		{"member made by the call", []Merged{item(5, 3, 0, 1, 2), item(6, 2, 3, 5)}, "item 1 absorbed id 5 of 4 issued before"},
	} {
		if err := index().Install(pts, tc.merged); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Install = %v, want %q", tc.name, err, tc.want)
		}
	}
	x := index()
	if err := x.Install(pts, []Merged{item(5, 3, 1, 0, 2)}); err != nil {
		t.Fatalf("an item that installs: %v", err)
	}
	if x.Len() != 6 || x.items[4] != (mergeItem{}) || !x.items[5].alive || x.items[1].alive || !reflect.DeepEqual(x.cells, map[[2]int32][]int{{0, 0}: {5}, {10, 0}: {3}}) {
		t.Fatalf("installed index: %+v, cells %v", x.items, x.cells)
	}
	if err := NewCentroidIndex(0).Install(pts, []Merged{item(4, 2, 0, 1)}); err == nil {
		t.Fatal("merges installed at a zero cutoff")
	}
}

func TestMergeNearReachesPastTheBlock(t *testing.T) {
	// The generator must produce what the seeding argument is about: merge
	// chains that take in old items no new point's 3×3 block holds.
	far := 0
	for seed := int64(0); seed < 40; seed++ {
		d, wins := mergeWindows(seed, 3, 8|uint8(seed)&7)
		x := NewCentroidIndex(d)
		var alive []int
		for _, win := range wins {
			var reached bool
			alive, reached, _ = mergeWindow(t, x, alive, win)
			if reached {
				far++
			}
		}
	}
	if far == 0 {
		t.Fatal("no window merged an item outside its new points' 3×3 blocks")
	}
	t.Logf("%d windows reached past the block", far)
}

func TestMergeNewNonPositiveCutoff(t *testing.T) {
	x := NewCentroidIndex(0)
	x.Add(WeightedPoint{P: geo.Point{}, W: 1})
	x.Add(WeightedPoint{P: geo.Point{}, W: 1})
	if got := x.MergeNew(0); got != nil {
		t.Fatalf("d=0 merged %+v", got)
	}
}
