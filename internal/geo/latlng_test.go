package geo

import (
	"math"
	"testing"
)

// haversineMeters returns the great-circle distance between a and b: the
// geodetic reference the projection and the GeoHash cell sizes are checked
// against.
func haversineMeters(a, b LatLng) float64 {
	la1 := a.Lat * math.Pi / 180
	la2 := b.Lat * math.Pi / 180
	dla := (b.Lat - a.Lat) * math.Pi / 180
	dlo := (b.Lng - a.Lng) * math.Pi / 180
	s1 := math.Sin(dla / 2)
	s2 := math.Sin(dlo / 2)
	h := s1*s1 + math.Cos(la1)*math.Cos(la2)*s2*s2
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(h)))
}

func TestHaversineKnownDistances(t *testing.T) {
	// Beijing Tiananmen to Beijing West Railway Station: ~7.2 km.
	a := LatLng{39.9087, 116.3975}
	b := LatLng{39.8946, 116.3222}
	d := haversineMeters(a, b)
	if d < 6000 || d > 8500 {
		t.Errorf("Haversine Beijing = %v, want ~7200", d)
	}
	// One degree of latitude is ~111.2 km.
	d = haversineMeters(LatLng{0, 0}, LatLng{1, 0})
	if !almostEqual(d, 111195, 100) {
		t.Errorf("Haversine 1 degree lat = %v, want ~111195", d)
	}
	if haversineMeters(a, a) != 0 {
		t.Error("Haversine of identical points should be 0")
	}
}

// TestEquirectApproximatesHaversineAtCityScale: the shard keys' projection
// of a planar offset from the origin lands at the great-circle distance of
// that offset, to 0.1 %.
func TestEquirectApproximatesHaversineAtCityScale(t *testing.T) {
	pr := Projector{Origin: LatLng{39.9, 116.4}}
	for _, off := range []Point{{85, 111}, {-1700, 1110}, {1280, -3330}, {4260, 5560}} {
		planar := Dist(Point{}, off)
		geodetic := haversineMeters(pr.Origin, pr.ToLatLng(off))
		if rel := math.Abs(geodetic-planar) / planar; rel > 1e-3 {
			t.Errorf("offset %v: projected distance off by %v", off, rel)
		}
	}
}

func TestProjectorDistancePreservation(t *testing.T) {
	pr := Projector{Origin: LatLng{39.9, 116.4}}
	a := Point{X: 855, Y: 1112}
	b := Point{X: -2563, Y: 3336}
	geodetic := haversineMeters(pr.ToLatLng(a), pr.ToLatLng(b))
	planar := Dist(a, b)
	if rel := math.Abs(planar-geodetic) / geodetic; rel > 2e-3 {
		t.Errorf("projection distorts distance: planar=%v geodetic=%v rel=%v", planar, geodetic, rel)
	}
}

func TestProjectorOriginMapsToZero(t *testing.T) {
	pr := Projector{Origin: LatLng{31.2, 121.5}}
	if ll := pr.ToLatLng(Point{}); ll != pr.Origin {
		t.Errorf("(0,0) projects to %v, want the origin %v", ll, pr.Origin)
	}
}
