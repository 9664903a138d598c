package synth

import (
	"math"
	"math/rand"
	"sort"

	"dlinfma/internal/geo"
	"dlinfma/internal/geocode"
	"dlinfma/internal/model"
)

// DeliveryKind classifies a ground-truth delivery location.
type DeliveryKind int8

// The three delivery location kinds of Figure 1.
const (
	KindDoorstep DeliveryKind = iota
	KindLocker
	KindReception
)

// String returns a label for the kind.
func (k DeliveryKind) String() string {
	switch k {
	case KindDoorstep:
		return "doorstep"
	case KindLocker:
		return "locker"
	case KindReception:
		return "reception"
	default:
		return "invalid"
	}
}

// Building is one building with its doorstep delivery point.
type Building struct {
	ID        model.BuildingID
	Center    geo.Point
	Community int
	Doorstep  geo.Point
	POI       geocode.POICategory
}

// Community is a residential area: a group of buildings sharing an express
// locker and a reception. Coarse communities have a single POI entry, so all
// their addresses geocode to the community centroid.
type Community struct {
	Center    geo.Point
	Locker    geo.Point
	Reception geo.Point
	Buildings []int
	Coarse    bool
	// Sibling is the index of the similarly named community that wrong
	// parses resolve to.
	Sibling int
}

// World is the generated city plus per-address ground truth and the order
// frequency model. It is the intermediate product between a Profile and a
// model.Dataset.
type World struct {
	Profile     Profile
	Buildings   []Building
	Communities []Community
	Addresses   []model.AddressInfo
	Truth       map[model.AddressID]geo.Point
	TruthKind   map[model.AddressID]DeliveryKind

	addrWeight []float64 // order frequency weight per address
	zones      [][]int   // building indices per courier zone
	zoneOfBld  []int     // zone of each building, aligned with Buildings
	stations   []geo.Point
	addrsOfBld [][]model.AddressID
	zoneAddrs  [][]model.AddressID
	zoneCum    [][]float64 // cumulative weights aligned with zoneAddrs
}

// poiPool is the category distribution buildings draw from; residences
// dominate as in a delivery service area.
var poiPool = []struct {
	cat geocode.POICategory
	w   float64
}{
	{geocode.POIResidence, 0.45}, {geocode.POIDormitory, 0.06},
	{geocode.POIVilla, 0.03}, {geocode.POICompany, 0.12},
	{geocode.POIOfficeBuilding, 0.07}, {geocode.POIGovernment, 0.02},
	{geocode.POISchool, 0.03}, {geocode.POIUniversity, 0.01},
	{geocode.POIHospital, 0.02}, {geocode.POIClinic, 0.02},
	{geocode.POIMall, 0.02}, {geocode.POIConvenienceStore, 0.03},
	{geocode.POIRestaurant, 0.03}, {geocode.POIHotel, 0.02},
	{geocode.POIBank, 0.01}, {geocode.POIPostOffice, 0.01},
	{geocode.POIFactory, 0.01}, {geocode.POIWarehouse, 0.01},
	{geocode.POIGym, 0.01}, {geocode.POIPark, 0.01},
	{geocode.POIOther, 0.01},
}

func samplePOI(rng *rand.Rand) geocode.POICategory {
	r := rng.Float64()
	for _, p := range poiPool {
		if r < p.w {
			return p.cat
		}
		r -= p.w
	}
	return geocode.POIOther
}

// BuildWorld lays out the city: communities on a jittered grid, buildings
// around community centers, addresses with delivery preferences, geocodes
// with the three error modes, courier zones, and stations.
func BuildWorld(p Profile) (*World, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	w := &World{
		Profile:   p,
		Truth:     make(map[model.AddressID]geo.Point),
		TruthKind: make(map[model.AddressID]DeliveryKind),
	}

	// Communities on a grid with jitter.
	bpc := p.BuildingsPerCommunity
	if bpc <= 0 {
		bpc = 8
	}
	nComm := (p.NBuildings + bpc - 1) / bpc
	grid := int(math.Ceil(math.Sqrt(float64(nComm))))
	cell := p.Extent / float64(grid)
	for c := 0; c < nComm; c++ {
		gx, gy := c%grid, c/grid
		center := geo.Point{
			X: (float64(gx)+0.5)*cell + rng.NormFloat64()*cell*0.08,
			Y: (float64(gy)+0.5)*cell + rng.NormFloat64()*cell*0.08,
		}
		// The locker sits near the community center; the reception at the
		// community gate, offset toward the region edge.
		locker := center.Add(geo.Point{X: rng.NormFloat64() * 6, Y: 18 + rng.NormFloat64()*6})
		reception := center.Add(geo.Point{X: -cell * 0.28, Y: rng.NormFloat64() * 8})
		w.Communities = append(w.Communities, Community{
			Center: center, Locker: locker, Reception: reception,
			Coarse: rng.Float64() < p.PCoarseCommunity,
		})
	}
	// Sibling = nearest other community (the similarly named confusable one).
	for i := range w.Communities {
		best, bestD := i, math.Inf(1)
		for j := range w.Communities {
			if j == i {
				continue
			}
			if d := geo.Dist(w.Communities[i].Center, w.Communities[j].Center); d < bestD {
				best, bestD = j, d
			}
		}
		w.Communities[i].Sibling = best
	}

	// Buildings scattered around community centers.
	bradius := cell * 0.30
	for b := 0; b < p.NBuildings; b++ {
		c := b % nComm
		ang := rng.Float64() * 2 * math.Pi
		r := (0.25 + 0.75*rng.Float64()) * bradius
		center := w.Communities[c].Center.Add(geo.Point{X: math.Cos(ang) * r, Y: math.Sin(ang) * r})
		door := center.Add(geo.Point{X: rng.NormFloat64() * 2, Y: -8 + rng.NormFloat64()*2})
		w.Buildings = append(w.Buildings, Building{
			ID: model.BuildingID(b), Center: center, Community: c,
			Doorstep: door, POI: samplePOI(rng),
		})
		w.Communities[c].Buildings = append(w.Communities[c].Buildings, b)
	}

	// Addresses: delivery preference, geocode, order weight.
	w.addrsOfBld = make([][]model.AddressID, len(w.Buildings))
	var nextID model.AddressID
	sampleKind := func() DeliveryKind {
		switch r := rng.Float64(); {
		case r < p.PLocker:
			return KindLocker
		case r < p.PLocker+p.PReception:
			return KindReception
		default:
			return KindDoorstep
		}
	}
	for bi := range w.Buildings {
		bld := &w.Buildings[bi]
		comm := &w.Communities[bld.Community]
		n := p.MinAddrPerBuilding + rng.Intn(p.MaxAddrPerBuilding-p.MinAddrPerBuilding+1)
		// Customers of one building mostly share a receiving habit; a
		// minority deviates, producing the paper's Figure 9(a) observation
		// that over ~14-22% of buildings span several delivery locations.
		dominant := sampleKind()
		for k := 0; k < n; k++ {
			id := nextID
			nextID++
			kind := dominant
			if rng.Float64() > 0.92 {
				kind = sampleKind()
			}
			var truth geo.Point
			switch kind {
			case KindDoorstep:
				truth = bld.Doorstep
			case KindLocker:
				truth = comm.Locker
			case KindReception:
				truth = comm.Reception
			}
			// Geocode with error modes.
			mode := geocode.ErrAccurate
			gc := bld.Center.Add(geo.Point{X: rng.NormFloat64() * p.GeocodeSigma, Y: rng.NormFloat64() * p.GeocodeSigma})
			if comm.Coarse {
				mode = geocode.ErrCoarsePOI
				gc = comm.Center
			}
			if rng.Float64() < p.PWrongParse {
				mode = geocode.ErrWrongParse
				sib := w.Communities[comm.Sibling]
				gc = sib.Center.Add(geo.Point{X: rng.NormFloat64() * 15, Y: rng.NormFloat64() * 15})
			}
			w.Addresses = append(w.Addresses, model.AddressInfo{
				ID: id, Building: bld.ID, Geocode: gc, POI: bld.POI, GeocodeMode: mode,
			})
			w.Truth[id] = truth
			w.TruthKind[id] = kind
			w.addrsOfBld[bi] = append(w.addrsOfBld[bi], id)
			// Log-normal order frequency: a few very active customers
			// (Figure 9(b)'s heavy tail).
			w.addrWeight = append(w.addrWeight, math.Exp(rng.NormFloat64()*1.0))
		}
	}

	// Courier zones: contiguous strips by building x coordinate, or — with
	// AlignZonesToCommunities — strips of whole communities, so shared
	// lockers and receptions never serve two zones.
	w.zones = make([][]int, p.NCouriers)
	if p.AlignZonesToCommunities {
		corder := make([]int, len(w.Communities))
		for i := range corder {
			corder[i] = i
		}
		sort.Slice(corder, func(i, j int) bool {
			return w.Communities[corder[i]].Center.X < w.Communities[corder[j]].Center.X
		})
		for i, c := range corder {
			z := i * p.NCouriers / len(corder)
			w.zones[z] = append(w.zones[z], w.Communities[c].Buildings...)
		}
	} else {
		order := make([]int, len(w.Buildings))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool {
			return w.Buildings[order[i]].Center.X < w.Buildings[order[j]].Center.X
		})
		for i, b := range order {
			z := i * p.NCouriers / len(order)
			w.zones[z] = append(w.zones[z], b)
		}
	}
	w.zoneOfBld = make([]int, len(w.Buildings))
	for z, blds := range w.zones {
		for _, b := range blds {
			w.zoneOfBld[b] = z
		}
	}
	w.stations = make([]geo.Point, p.NCouriers)
	for z := range w.stations {
		var cx float64
		for _, b := range w.zones[z] {
			cx += w.Buildings[b].Center.X
		}
		if len(w.zones[z]) > 0 {
			cx /= float64(len(w.zones[z]))
		}
		w.stations[z] = geo.Point{X: cx, Y: -120}
	}

	// Per-zone address lists with cumulative order weights for direct
	// weighted sampling (preserving the heavy-tailed per-address frequency).
	w.zoneAddrs = make([][]model.AddressID, p.NCouriers)
	w.zoneCum = make([][]float64, p.NCouriers)
	for z, blds := range w.zones {
		var cum float64
		for _, b := range blds {
			for _, a := range w.addrsOfBld[b] {
				cum += w.addrWeight[a]
				w.zoneAddrs[z] = append(w.zoneAddrs[z], a)
				w.zoneCum[z] = append(w.zoneCum[z], cum)
			}
		}
	}
	return w, nil
}

// NZones returns the number of courier zones (one per courier: courier z
// works zone z, and every trip's Courier id is its zone).
func (w *World) NZones() int { return len(w.zones) }

// ZoneOfBuilding returns the courier zone a building belongs to, or -1 for
// an unknown building.
func (w *World) ZoneOfBuilding(b model.BuildingID) int {
	if int(b) < 0 || int(b) >= len(w.zoneOfBld) {
		return -1
	}
	return w.zoneOfBld[b]
}

// ZoneOfAddress returns the courier zone of an address's building; ok is
// false for unknown addresses. This is the ground-truth partition sharded
// serving tests align their routing to: an address's delivery evidence can
// only come from its own zone's trips (plus cross-zone orders).
func (w *World) ZoneOfAddress(id model.AddressID) (int, bool) {
	if int(id) < 0 || int(id) >= len(w.Addresses) {
		return 0, false
	}
	return w.ZoneOfBuilding(w.Addresses[id].Building), true
}
