package geo

import "testing"

func TestNewRectNormalizesCorners(t *testing.T) {
	r := NewRect(Point{X: 10, Y: -5}, Point{X: -3, Y: 7})
	if r.MinX != -3 || r.MaxX != 10 || r.MinY != -5 || r.MaxY != 7 {
		t.Errorf("NewRect = %+v", r)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{X: 5, Y: 5}, true},
		{Point{X: 0, Y: 0}, true},   // boundary inclusive
		{Point{X: 10, Y: 10}, true}, // boundary inclusive
		{Point{X: -1, Y: 5}, false},
		{Point{X: 5, Y: 11}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectGeometry(t *testing.T) {
	r := Rect{MinX: 1, MinY: 2, MaxX: 5, MaxY: 10}
	if r.Width() != 4 || r.Height() != 8 {
		t.Errorf("geometry: w=%v h=%v", r.Width(), r.Height())
	}
}

func TestBoundingRectEmpty(t *testing.T) {
	if got := BoundingRect(nil); got != (Rect{}) {
		t.Errorf("BoundingRect(nil) = %+v", got)
	}
}
