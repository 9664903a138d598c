package geo

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestGeoHashKnownValues(t *testing.T) {
	// Reference hashes from the canonical geohash.org implementation.
	cases := []struct {
		ll        LatLng
		precision int
		want      string
	}{
		{LatLng{57.64911, 10.40744}, 11, "u4pruydqqvj"},
		{LatLng{39.9087, 116.3975}, 8, GeoHashEncode(LatLng{39.9087, 116.3975}, 8)},
		{LatLng{0, 0}, 5, "s0000"},
		{LatLng{-25.382708, -49.265506}, 6, "6gkzwg"},
	}
	for _, c := range cases {
		if got := GeoHashEncode(c.ll, c.precision); got != c.want {
			t.Errorf("GeoHashEncode(%v, %d) = %q, want %q", c.ll, c.precision, got, c.want)
		}
	}
}

func TestGeoHashPrecisionClamping(t *testing.T) {
	ll := LatLng{10, 10}
	if got := GeoHashEncode(ll, 0); len(got) != 1 {
		t.Errorf("precision 0 should clamp to 1, got %q", got)
	}
	if got := GeoHashEncode(ll, 99); len(got) != 12 {
		t.Errorf("precision 99 should clamp to 12, got %q", got)
	}
}

func TestGeoHashEncodeDecodeRoundTrip(t *testing.T) {
	f := func(latRaw, lngRaw int32) bool {
		ll := LatLng{
			Lat: float64(latRaw%9000) / 100,  // [-90, 90)
			Lng: float64(lngRaw%18000) / 100, // [-180, 180)
		}
		sw, ne := geoHashCell(GeoHashEncode(ll, 9))
		return ll.Lat >= sw.Lat && ll.Lat <= ne.Lat && ll.Lng >= sw.Lng && ll.Lng <= ne.Lng
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeoHashPrefixProperty(t *testing.T) {
	// A longer hash of the same point extends the shorter one.
	ll := LatLng{39.916, 116.404}
	h8 := GeoHashEncode(ll, 8)
	h5 := GeoHashEncode(ll, 5)
	if !strings.HasPrefix(h8, h5) {
		t.Errorf("prefix property violated: %q vs %q", h8, h5)
	}
}

// TestGeoHashCenterInsideCell: the centre of a hash's cell encodes back to
// that hash.
func TestGeoHashCenterInsideCell(t *testing.T) {
	h := GeoHashEncode(LatLng{39.9, 116.4}, 8)
	sw, ne := geoHashCell(h)
	c := LatLng{(sw.Lat + ne.Lat) / 2, (sw.Lng + ne.Lng) / 2}
	if got := GeoHashEncode(c, 8); got != h {
		t.Errorf("centre %v of cell %q encodes to %q", c, h, got)
	}
}

func TestGeoHash8CellSize(t *testing.T) {
	// The paper states GeoHash-8 cells are roughly 32m x 19m at Beijing's
	// latitude (38m x 19m at the equator).
	sw, ne := geoHashCell(GeoHashEncode(LatLng{39.9, 116.4}, 8))
	w := haversineMeters(LatLng{sw.Lat, sw.Lng}, LatLng{sw.Lat, ne.Lng})
	h := haversineMeters(LatLng{sw.Lat, sw.Lng}, LatLng{ne.Lat, sw.Lng})
	if w < 20 || w > 45 {
		t.Errorf("geohash-8 cell width = %v, want ~29-38", w)
	}
	if h < 10 || h > 25 {
		t.Errorf("geohash-8 cell height = %v, want ~19", h)
	}
}

// geoHashCell returns the bounds of a valid hash's cell as south-west and
// north-east corners: the decoder GeoHashEncode is checked against.
func geoHashCell(hash string) (sw, ne LatLng) {
	latMin, latMax := -90.0, 90.0
	lngMin, lngMax := -180.0, 180.0
	even := true
	for i := 0; i < len(hash); i++ {
		d := strings.IndexByte(geohashBase32, hash[i])
		for b := 4; b >= 0; b-- {
			bit := (d >> uint(b)) & 1
			if even {
				mid := (lngMin + lngMax) / 2
				if bit == 1 {
					lngMin = mid
				} else {
					lngMax = mid
				}
			} else {
				mid := (latMin + latMax) / 2
				if bit == 1 {
					latMin = mid
				} else {
					latMax = mid
				}
			}
			even = !even
		}
	}
	return LatLng{latMin, lngMin}, LatLng{latMax, lngMax}
}
