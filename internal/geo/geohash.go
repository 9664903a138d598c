package geo

import "strings"

// geohashBase32 is the standard GeoHash alphabet.
const geohashBase32 = "0123456789bcdefghjkmnpqrstuvwxyz"

// GeoHashEncode returns the GeoHash string of ll at the given character
// precision (1..12). The UNet-based baseline of the paper rasterizes
// annotated locations on GeoHash-8 cells (roughly 38 m x 19 m).
func GeoHashEncode(ll LatLng, precision int) string {
	if precision < 1 {
		precision = 1
	}
	if precision > 12 {
		precision = 12
	}
	latMin, latMax := -90.0, 90.0
	lngMin, lngMax := -180.0, 180.0
	var sb strings.Builder
	sb.Grow(precision)
	even := true // alternate lng/lat bits, starting with lng
	bit, idx := 0, 0
	for sb.Len() < precision {
		if even {
			mid := (lngMin + lngMax) / 2
			if ll.Lng >= mid {
				idx = idx<<1 | 1
				lngMin = mid
			} else {
				idx <<= 1
				lngMax = mid
			}
		} else {
			mid := (latMin + latMax) / 2
			if ll.Lat >= mid {
				idx = idx<<1 | 1
				latMin = mid
			} else {
				idx <<= 1
				latMax = mid
			}
		}
		even = !even
		bit++
		if bit == 5 {
			sb.WriteByte(geohashBase32[idx])
			bit, idx = 0, 0
		}
	}
	return sb.String()
}
