package synth

import (
	"sort"

	"dlinfma/internal/model"
)

// Split holds the spatially disjoint train/validation/test address sets. The
// paper splits by disjoint spatial regions so that no delivery location
// appears in two splits; here buildings are banded by their x coordinate,
// and every address of a building lands in the same split.
type Split struct {
	Train []model.AddressID
	Val   []model.AddressID
	Test  []model.AddressID
}

// SplitSpatial partitions the dataset's addresses into train/val/test by
// building location with the given fractions (test receives the remainder):
// buildings are ordered by x coordinate and cut into contiguous bands, so
// the three splits occupy disjoint spatial regions and share no delivery
// locations — the paper's splitting protocol.
func SplitSpatial(ds *model.Dataset, w *World, trainFrac, valFrac float64) Split {
	if trainFrac <= 0 || trainFrac >= 1 {
		trainFrac = 0.6
	}
	if valFrac <= 0 || trainFrac+valFrac >= 1 {
		valFrac = 0.2
	}
	// Order buildings by x, cut into 10 stripes, assign stripes round-robin
	// proportionally to the fractions.
	type bx struct {
		b model.BuildingID
		x float64
	}
	var blds []bx
	for _, b := range w.Buildings {
		blds = append(blds, bx{b.ID, b.Center.X})
	}
	sort.Slice(blds, func(i, j int) bool { return blds[i].x < blds[j].x })

	const stripes = 10
	assign := make(map[model.BuildingID]int) // 0 train, 1 val, 2 test
	nTrainStripes := int(trainFrac*stripes + 0.5)
	nValStripes := int(valFrac*stripes + 0.5)
	for i, b := range blds {
		stripe := i * stripes / len(blds)
		switch {
		case stripe < nTrainStripes:
			assign[b.b] = 0
		case stripe < nTrainStripes+nValStripes:
			assign[b.b] = 1
		default:
			assign[b.b] = 2
		}
	}

	var s Split
	for _, a := range ds.Addresses {
		switch assign[a.Building] {
		case 0:
			s.Train = append(s.Train, a.ID)
		case 1:
			s.Val = append(s.Val, a.ID)
		default:
			s.Test = append(s.Test, a.ID)
		}
	}
	return s
}
