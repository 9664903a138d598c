// Package geo provides the geospatial primitives shared by every other
// module: planar points in a local metric frame, rectangles, a uniform-grid
// spatial index, and the geodetic side the shard keys need — an
// equirectangular projection onto latitude/longitude and GeoHash encoding.
//
// The delivery-location pipeline operates on planar coordinates in meters.
package geo

import "math"

// Point is a location in a local planar frame, in meters.
type Point struct {
	X float64 // easting, meters
	Y float64 // northing, meters
}

// Dist returns the Euclidean distance between p and q in meters.
func Dist(p, q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// SqDist returns the squared Euclidean distance between p and q. It avoids
// the square root for comparison-only call sites.
func SqDist(p, q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Centroid returns the arithmetic mean of pts. It returns the zero Point for
// an empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	n := float64(len(pts))
	return Point{sx / n, sy / n}
}
