package geo

import (
	"math/rand"
	"sort"
	"testing"
)

func randomPoints(r *rand.Rand, n int, extent float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{r.Float64() * extent, r.Float64() * extent}
	}
	return pts
}

func TestIndexWithinMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts := randomPoints(r, 300, 500)
	idx := NewIndex(pts, 40)
	for trial := 0; trial < 100; trial++ {
		q := Point{r.Float64() * 500, r.Float64() * 500}
		radius := r.Float64() * 100
		got := idx.Within(q, radius)
		sort.Ints(got)
		var want []int
		for i, p := range pts {
			if Dist(p, q) <= radius {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Within(%v, %v): got %d points, want %d", q, radius, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Within(%v, %v): got %v, want %v", q, radius, got, want)
			}
		}
	}
}

func TestIndexEmpty(t *testing.T) {
	idx := NewIndex(nil, 50)
	if got := idx.Within(Point{1, 1}, 100); got != nil {
		t.Errorf("Within on empty index = %v, want nil", got)
	}
}

func TestIndexSinglePoint(t *testing.T) {
	idx := NewIndex([]Point{{10, 10}}, 50)
	if got := idx.Within(Point{13, 14}, 5); len(got) != 1 || got[0] != 0 {
		t.Errorf("Within(5) = %v, want [0]", got)
	}
	if got := idx.Within(Point{13, 14}, 4.99); got != nil {
		t.Errorf("Within(4.99) = %v, want nil", got)
	}
}

func TestIndexNegativeRadius(t *testing.T) {
	idx := NewIndex([]Point{{0, 0}}, 50)
	if got := idx.Within(Point{0, 0}, -1); got != nil {
		t.Errorf("Within negative radius = %v, want nil", got)
	}
}

func TestIndexDefaultCellSize(t *testing.T) {
	// Non-positive cell size falls back to a sane default rather than
	// dividing by zero.
	idx := NewIndex([]Point{{0, 0}, {100, 100}}, 0)
	if got := idx.Within(Point{90, 90}, 20); len(got) != 1 || got[0] != 1 {
		t.Errorf("Within = %v, want [1]", got)
	}
}

func TestIndexFarQuery(t *testing.T) {
	// A query far outside the indexed extent still finds every point in
	// reach, and only those.
	pts := []Point{{0, 0}, {100, 0}, {200, 0}}
	idx := NewIndex(pts, 10)
	q := Point{10000, 10000}
	got := idx.Within(q, Dist(q, pts[2])+1e-9)
	sort.Ints(got)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("far Within = %v, want [2]", got)
	}
	if got := idx.Within(q, Dist(q, pts[0])+1e-9); len(got) != 3 {
		t.Errorf("far Within reaching every point = %v, want all three", got)
	}
}
