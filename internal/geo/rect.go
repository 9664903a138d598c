package geo

// Rect is an axis-aligned rectangle in the local planar frame.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	r := Rect{a.X, a.Y, b.X, b.Y}
	if r.MinX > r.MaxX {
		r.MinX, r.MaxX = r.MaxX, r.MinX
	}
	if r.MinY > r.MaxY {
		r.MinY, r.MaxY = r.MaxY, r.MinY
	}
	return r
}

// BoundingRect returns the tightest rectangle containing pts. It returns the
// zero Rect for an empty slice.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{pts[0].X, pts[0].Y, pts[0].X, pts[0].Y}
	for _, p := range pts[1:] {
		if p.X < r.MinX {
			r.MinX = p.X
		}
		if p.X > r.MaxX {
			r.MaxX = p.X
		}
		if p.Y < r.MinY {
			r.MinY = p.Y
		}
		if p.Y > r.MaxY {
			r.MaxY = p.Y
		}
	}
	return r
}

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }
