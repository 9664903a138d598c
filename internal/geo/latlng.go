package geo

import "math"

// EarthRadiusMeters is the mean Earth radius used by distance computations.
const EarthRadiusMeters = 6371008.8

// LatLng is a geodetic coordinate in degrees.
type LatLng struct {
	Lat float64
	Lng float64
}

// Projector maps the local planar frame onto geodetic coordinates with an
// equirectangular projection anchored at Origin. The zero value is anchored
// at (0, 0) on the equator.
type Projector struct {
	Origin LatLng
}

// ToLatLng returns the geodetic coordinate of the planar point p.
func (pr *Projector) ToLatLng(p Point) LatLng {
	clat := math.Cos(pr.Origin.Lat * math.Pi / 180)
	lng := pr.Origin.Lng + p.X/(clat*EarthRadiusMeters)*180/math.Pi
	lat := pr.Origin.Lat + p.Y/EarthRadiusMeters*180/math.Pi
	return LatLng{Lat: lat, Lng: lng}
}
