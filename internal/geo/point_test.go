package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{-1, -1}, Point{2, 3}, 5},
		{Point{10, 0}, Point{0, 0}, 10},
	}
	for _, c := range cases {
		if got := Dist(c.p, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Dist(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := SqDist(c.p, c.q); !almostEqual(got, c.want*c.want, 1e-9) {
			t.Errorf("SqDist(%v, %v) = %v, want %v", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestDistSymmetricProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Point{ax, ay}, Point{bx, by}
		return Dist(a, b) == Dist(b, a) && Dist(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Point{float64(ax), float64(ay)}
		b := Point{float64(bx), float64(by)}
		c := Point{float64(cx), float64(cy)}
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -4}
	if got := p.Add(q); got != (Point{4, -2}) {
		t.Errorf("Add = %v", got)
	}
}

func TestCentroid(t *testing.T) {
	if got := Centroid(nil); got != (Point{}) {
		t.Errorf("Centroid(nil) = %v, want zero", got)
	}
	pts := []Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	if got := Centroid(pts); got != (Point{1, 1}) {
		t.Errorf("Centroid = %v, want (1,1)", got)
	}
}

func TestCentroidWithinBoundingRectProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		pts := make([]Point, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			x, y := raw[i], raw[i+1]
			if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
				return true
			}
			// Keep magnitudes sane so the mean stays in range.
			pts = append(pts, Point{math.Mod(x, 1e6), math.Mod(y, 1e6)})
		}
		c := Centroid(pts)
		r := BoundingRect(pts)
		r.MinX, r.MinY, r.MaxX, r.MaxY = r.MinX-1e-6, r.MinY-1e-6, r.MaxX+1e-6, r.MaxY+1e-6
		return r.Contains(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
