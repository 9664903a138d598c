package geo

import "math"

// ShardKey identifies the geohash-prefix cell a point falls in. Points with
// equal keys share a cell of the given character precision and therefore land
// on the same shard; the key is the routing unit of the sharded serving
// engine (internal/shard).
type ShardKey string

// NormalizeLatLng maps an arbitrary geodetic coordinate onto the canonical
// domain geohashing expects: latitude clamped to [-90, 90] and longitude
// wrapped into [-180, 180). Wrapping makes +180 and -180 — the antimeridian
// seam — one and the same cell column, so a point fed in either convention
// gets the same ShardKey; clamping keeps pole-crossing noise from saturating
// into an undefined cell. NaN coordinates are mapped to 0 so a corrupt fix
// still routes deterministically instead of poisoning a hash.
func NormalizeLatLng(ll LatLng) LatLng {
	if math.IsNaN(ll.Lat) {
		ll.Lat = 0
	}
	if math.IsNaN(ll.Lng) {
		ll.Lng = 0
	}
	ll.Lat = math.Max(-90, math.Min(90, ll.Lat))
	lng := math.Mod(ll.Lng+180, 360)
	if lng < 0 {
		lng += 360
	}
	ll.Lng = lng - 180
	return ll
}

// ShardKeyForLatLng returns the ShardKey of a geodetic coordinate at the
// given geohash precision. The coordinate is normalized first, so
// antimeridian and pole inputs are well-defined.
func ShardKeyForLatLng(ll LatLng, precision int) ShardKey {
	return ShardKey(GeoHashEncode(NormalizeLatLng(ll), precision))
}

// shardProjector anchors planar points at (0, 0): datasets in this codebase
// live in a local metric frame, so one fixed origin keeps keys stable across
// processes without any per-dataset calibration.
var shardProjector Projector

// ShardKeyOf returns the ShardKey of a planar point (meters in the local
// frame) at the given geohash precision.
func ShardKeyOf(p Point, precision int) ShardKey {
	return ShardKeyForLatLng(shardProjector.ToLatLng(p), precision)
}
