package deploy

import (
	"math/rand/v2"
	"testing"

	"dlinfma/internal/model"
)

// TestIDIndexMatchesMap files ids — dense ones, ids sharing id 0's home
// slot, and random ones named more than once — in an IDIndex grown from
// empty through every resize, and in one sized up front with Grow, and holds
// every Add to a Go map of the same filings.
func TestIDIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	ids := append(fuzzIDs(), 3, 4, 5, 6, 7)
	for i := 0; i < 3000; i++ {
		ids = append(ids, model.AddressID(rng.Int32()), ids[rng.IntN(len(ids))])
	}
	for _, grow := range []int{0, len(ids)} {
		var x IDIndex
		x.Grow(grow)
		sized := len(x.slots)
		ref := map[model.AddressID]int32{}
		for i, id := range ids {
			want, seen := ref[id]
			if !seen {
				want = int32(i)
				ref[id] = want
			}
			if got, added := x.Add(id, int32(i)); got != want || added == seen {
				t.Fatalf("grow %d: Add(%d, %d) = %d %v, the map says %d %v", grow, id, i, got, added, want, !seen)
			}
		}
		if x.n != len(ref) || x.n > len(x.slots)*7/8 {
			t.Fatalf("grow %d: %d ids in %d slots, the map holds %d", grow, x.n, len(x.slots), len(ref))
		}
		if grow > 0 && len(x.slots) != sized {
			t.Fatalf("an index grown for %d ids rehashed from %d slots to %d", grow, sized, len(x.slots))
		}
	}
}
