package geo

import (
	"math"
	"strings"
	"testing"
)

func TestNormalizeLatLng(t *testing.T) {
	cases := []struct {
		name string
		in   LatLng
		want LatLng
	}{
		{"identity", LatLng{39.9, 116.4}, LatLng{39.9, 116.4}},
		{"antimeridian east", LatLng{10, 180}, LatLng{10, -180}},
		{"antimeridian west", LatLng{10, -180}, LatLng{10, -180}},
		{"wrap past east", LatLng{10, 181}, LatLng{10, -179}},
		{"wrap past west", LatLng{10, -181}, LatLng{10, 179}},
		{"full turn", LatLng{10, 360 + 116.4}, LatLng{10, 116.4}},
		{"north pole overshoot", LatLng{91, 30}, LatLng{90, 30}},
		{"south pole overshoot", LatLng{-95, 30}, LatLng{-90, 30}},
		{"nan", LatLng{math.NaN(), math.NaN()}, LatLng{0, 0}},
	}
	for _, c := range cases {
		got := NormalizeLatLng(c.in)
		if math.Abs(got.Lat-c.want.Lat) > 1e-9 || math.Abs(got.Lng-c.want.Lng) > 1e-9 {
			t.Errorf("%s: NormalizeLatLng(%v) = %v, want %v", c.name, c.in, got, c.want)
		}
	}
}

// TestShardKeyAntimeridian checks that the two spellings of the antimeridian
// produce one key: a shard router must not split the seam cell in two.
func TestShardKeyAntimeridian(t *testing.T) {
	for _, prec := range []int{1, 4, 6, 8} {
		east := ShardKeyForLatLng(LatLng{12.5, 180}, prec)
		west := ShardKeyForLatLng(LatLng{12.5, -180}, prec)
		if east != west {
			t.Errorf("precision %d: key(lng=180) = %q, key(lng=-180) = %q", prec, east, west)
		}
		wrapped := ShardKeyForLatLng(LatLng{12.5, 540}, prec)
		if wrapped != east {
			t.Errorf("precision %d: key(lng=540) = %q, want %q", prec, wrapped, east)
		}
	}
}

// TestShardKeyPoles checks that out-of-range latitudes saturate to the pole
// cell instead of producing undefined keys.
func TestShardKeyPoles(t *testing.T) {
	if k, want := ShardKeyForLatLng(LatLng{95, 30}, 6), ShardKeyForLatLng(LatLng{90, 30}, 6); k != want {
		t.Errorf("key(lat=95) = %q, want pole key %q", k, want)
	}
	if k, want := ShardKeyForLatLng(LatLng{-120, 30}, 6), ShardKeyForLatLng(LatLng{-90, 30}, 6); k != want {
		t.Errorf("key(lat=-120) = %q, want pole key %q", k, want)
	}
	// Both poles are still distinct from each other.
	if ShardKeyForLatLng(LatLng{90, 30}, 6) == ShardKeyForLatLng(LatLng{-90, 30}, 6) {
		t.Error("north and south pole share a key")
	}
}

// TestShardKeyPrefixProperty: a coarser key is a prefix of a finer one — the
// property that makes precision a pure granularity knob for the router.
func TestShardKeyPrefixProperty(t *testing.T) {
	p := Point{X: 312.5, Y: -87.25}
	k8 := ShardKeyOf(p, 8)
	for prec := 1; prec < 8; prec++ {
		k := ShardKeyOf(p, prec)
		if len(k) != prec {
			t.Fatalf("precision %d: key %q has %d characters", prec, k, len(k))
		}
		if !strings.HasPrefix(string(k8), string(k)) {
			t.Errorf("key %q at precision %d is not a prefix of %q", k, prec, k8)
		}
	}
}

// TestShardKeyOfSeparates: two points farther apart than a high-precision
// cell get different keys, nearby points share one.
func TestShardKeyOfSeparates(t *testing.T) {
	a := Point{X: 0, Y: 0}
	b := Point{X: 5000, Y: 5000}
	if ShardKeyOf(a, 6) == ShardKeyOf(b, 6) {
		t.Error("5 km apart but same precision-6 key")
	}
	c := Point{X: 1, Y: 1}
	if ShardKeyOf(a, 5) != ShardKeyOf(c, 5) {
		t.Error("1 m apart but different precision-5 keys")
	}
}
