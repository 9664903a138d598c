// Package deploy is the serving package of the deployed system of Section
// VI: the delivery-location store with the paper's three-level query
// fallback (address -> building majority -> geocode), writable while a
// re-inference fills it and frozen to serve, and the /v1 HTTP service every
// read and write request runs through. The two applications the paper builds
// on the store live with the examples that run them (examples/routeplanning,
// examples/availability).
package deploy

import (
	"sync"

	"dlinfma/internal/geo"
	"dlinfma/internal/model"
)

// Source says which level of the store answered a query.
type Source int

// Query answer sources, from most to least specific.
const (
	SourceAddress Source = iota
	SourceBuilding
	SourceGeocode
	SourceNone
)

// String returns the source label.
func (s Source) String() string {
	switch s {
	case SourceAddress:
		return "address"
	case SourceBuilding:
		return "building"
	case SourceGeocode:
		return "geocode"
	default:
		return "none"
	}
}

// ParseSource maps a wire source label (api.Location.Source) back to the
// Source it names. Unknown labels parse as SourceNone — a remote answer the
// local fallback chain cannot classify is still an answer, just an
// unattributed one.
func ParseSource(s string) Source {
	switch s {
	case "address":
		return SourceAddress
	case "building":
		return SourceBuilding
	case "geocode":
		return SourceGeocode
	default:
		return SourceNone
	}
}

// Store is the key-value delivery-location store of Figure 14 in its
// writable form: what a re-inference or a snapshot restore fills, freezes
// into the FrozenStore a shard serves, and then drops. It is safe for
// concurrent readers and writers.
type Store struct {
	mu        sync.RWMutex
	byAddress map[model.AddressID]geo.Point
	byBld     map[model.BuildingID]geo.Point
	geocodes  map[model.AddressID]geo.Point
	buildings map[model.AddressID]model.BuildingID
	// bldVotes accumulates per-building location votes so the
	// building-level answer is the most-used delivery location among the
	// building's addresses, as the paper describes.
	bldVotes map[model.BuildingID]map[geo.Point]int
	// bldBestN tracks the vote count behind byBld's current majority, so Put
	// maintains the argmax incrementally instead of rescanning every vote —
	// bulk re-inference writes stay O(1) per address.
	bldBestN map[model.BuildingID]int
	// conf holds the model's top-1 probability for each address-level entry.
	// Zero means "unknown" (legacy snapshots, building/geocode fallbacks).
	conf map[model.AddressID]float32
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		byAddress: make(map[model.AddressID]geo.Point),
		byBld:     make(map[model.BuildingID]geo.Point),
		geocodes:  make(map[model.AddressID]geo.Point),
		buildings: make(map[model.AddressID]model.BuildingID),
		bldVotes:  make(map[model.BuildingID]map[geo.Point]int),
		bldBestN:  make(map[model.BuildingID]int),
		conf:      make(map[model.AddressID]float32),
	}
}

// SetConfidence records the model's top-1 probability behind an address's
// inferred location. Freeze stamps it into the served answer so the read
// path can flag low-confidence serving without touching the matcher.
func (s *Store) SetConfidence(addr model.AddressID, conf float32) {
	s.mu.Lock()
	s.conf[addr] = conf
	s.mu.Unlock()
}

// RegisterAddress records an address's building and geocode (the fallback
// levels). Call before or after Put in any order.
func (s *Store) RegisterAddress(addr model.AddressID, bld model.BuildingID, geocode geo.Point) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buildings[addr] = bld
	s.geocodes[addr] = geocode
}

// Put stores the inferred delivery location of an address and refreshes the
// building-level majority.
func (s *Store) Put(addr model.AddressID, loc geo.Point) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byAddress[addr] = loc
	bld, ok := s.buildings[addr]
	if !ok {
		return
	}
	votes := s.bldVotes[bld]
	if votes == nil {
		votes = make(map[geo.Point]int)
		s.bldVotes[bld] = votes
	}
	votes[loc]++
	// Incremental argmax: only this location's count changed, so the
	// majority moves only if loc now beats the tracked best (or is the
	// best, whose count just grew). Equal counts go to the smaller (X, Y),
	// so the majority depends on the votes cast and not on their order: a
	// snapshot restore, which replays them in map order, freezes to the
	// same building answers as the re-inference that wrote it.
	best, bestN := s.byBld[bld], s.bldBestN[bld]
	if n := votes[loc]; loc == best || n > bestN || (n == bestN && pointLess(loc, best)) {
		s.byBld[bld] = loc
		s.bldBestN[bld] = n
	}
}

// pointLess orders points by X, then Y.
func pointLess(a, b geo.Point) bool {
	return a.X < b.X || (a.X == b.X && a.Y < b.Y)
}

// Query answers a delivery-location request with the paper's fallback chain:
// the address-level result, else the building-level majority, else the
// geocoded location. The paper notes the building fallback also serves
// addresses never seen in history, as long as the segmentation tool resolves
// their building.
func (s *Store) Query(addr model.AddressID) (geo.Point, Source) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if loc, ok := s.byAddress[addr]; ok {
		return loc, SourceAddress
	}
	if bld, ok := s.buildings[addr]; ok {
		if loc, ok := s.byBld[bld]; ok {
			return loc, SourceBuilding
		}
	}
	if loc, ok := s.geocodes[addr]; ok {
		return loc, SourceGeocode
	}
	return geo.Point{}, SourceNone
}

// QueryBuilding answers at building granularity (used for never-seen
// addresses whose building is known).
func (s *Store) QueryBuilding(bld model.BuildingID) (geo.Point, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	loc, ok := s.byBld[bld]
	return loc, ok
}

// Len returns the number of address-level entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byAddress)
}

// LoadDataset registers every address of a dataset (buildings + geocodes).
func (s *Store) LoadDataset(ds *model.Dataset) {
	for _, a := range ds.Addresses {
		s.RegisterAddress(a.ID, a.Building, a.Geocode)
	}
}
