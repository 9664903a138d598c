// Package deploy is the serving package of the deployed system of Section
// VI: the delivery-location store with the paper's three-level query
// fallback (address -> building majority -> geocode), writable while a
// re-inference fills it and frozen to serve, and the /v1 HTTP service every
// read and write request runs through. The two applications the paper builds
// on the store live with the examples that run them (examples/routeplanning,
// examples/availability).
package deploy

import (
	"slices"

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
	// SourceUnavailable answers a lookup whose owning shard could not answer
	// at all — a cluster frontend's shard with no live peer — while the
	// request is still live. No store holds it and no wire carries it: the
	// HTTP layer turns it into a 502.
	SourceUnavailable
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
	case SourceUnavailable:
		return "unavailable"
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
// into the FrozenStore a shard serves, and then drops. It only collects rows,
// one per address behind one IDIndex; Freeze alone derives the answers, the
// building majorities and the counts from the rows as they stand, so nothing
// depends on the order of RegisterAddress and Put or remembers a location a
// later Put replaced. A Store has one owner and no lock: a restore's load
// and a shard's re-inference each fill and freeze their own on one
// goroutine, and hand on only the FrozenStore.
type Store struct {
	rows  []storeRow
	index IDIndex
}

// storeRow is everything the store knows about one address. registered says
// RegisterAddress supplied building and geocode (the fallback levels),
// located that Put supplied loc; conf is the model's top-1 probability behind
// loc, zero when unknown (legacy snapshots).
type storeRow struct {
	id         model.AddressID
	bld        model.BuildingID
	geocode    geo.Point
	loc        geo.Point
	conf       float32
	registered bool
	located    bool
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{}
}

// grow makes room for n more addresses, so a bulk load of known size does
// not pay for growing the rows and their index step by step.
func (s *Store) grow(n int) {
	s.rows = slices.Grow(s.rows, n)
	s.index.Grow(n)
}

// row returns addr's row, adding an empty one the first time addr is named.
// The pointer is good until the next call.
func (s *Store) row(addr model.AddressID) *storeRow {
	i, added := s.index.Add(addr, int32(len(s.rows)))
	if added {
		s.rows = append(s.rows, storeRow{id: addr})
	}
	return &s.rows[i]
}

// SetConfidence records the model's top-1 probability behind an address's
// inferred location. Freeze stamps it into the served answer so the read
// path can flag low-confidence serving without touching the matcher.
func (s *Store) SetConfidence(addr model.AddressID, conf float32) {
	s.row(addr).conf = conf
}

// RegisterAddress records an address's building and geocode (the fallback
// levels) unless an earlier registration did: the first naming of an
// address wins, as it does in the evidence's registry. It reports whether
// it recorded them. Call before or after Put in any order.
func (s *Store) RegisterAddress(addr model.AddressID, bld model.BuildingID, geocode geo.Point) bool {
	r := s.row(addr)
	if r.registered {
		return false
	}
	r.bld, r.geocode, r.registered = bld, geocode, true
	return true
}

// Register records the building and geocode of every address of addrs the
// store has none for yet — of several naming one address, the first — in
// one pass over a store grown for all of them, and returns the addresses it
// recorded: addrs compacted in place, in their order. A snapshot restore
// registers a shard's addresses with it, and its evidence takes the same
// list, so the answer a restore serves and the registry the next snapshot
// writes agree on every address a document names twice.
func (s *Store) Register(addrs []model.AddressInfo) []model.AddressInfo {
	s.grow(len(addrs))
	kept := addrs[:0]
	for _, a := range addrs {
		if s.RegisterAddress(a.ID, a.Building, a.Geocode) {
			kept = append(kept, a)
		}
	}
	return kept
}

// Put stores the inferred delivery location of an address, replacing any
// earlier one.
func (s *Store) Put(addr model.AddressID, loc geo.Point) {
	r := s.row(addr)
	// Read before write: a restore's Puts land on scattered rows (the keys
	// arrive in byte order), and unconditional stores made
	// BenchmarkRestoreSnapshot's 200,000 addresses about 5 % slower, in wall
	// and in CPU time, on two shared vCPUs.
	if !r.located {
		r.located = true
	}
	r.loc = loc
}

// pointLess orders points by X, then Y.
func pointLess(a, b geo.Point) bool {
	return a.X < b.X || (a.X == b.X && a.Y < b.Y)
}

// comparePoints is pointLess as a three-way comparison.
func comparePoints(a, b geo.Point) int {
	switch {
	case a == b:
		return 0
	case pointLess(a, b):
		return -1
	}
	return 1
}

// tally sweeps the rows once for what Freeze derives from them: the number
// of rows with anything to answer with (registered or located), the number
// located, and every building's majority — the location most of the
// building's located addresses currently have, as the paper describes, equal
// counts going to the smaller (X, Y), so the answer depends on the votes and
// never on the order they were cast in, and a snapshot restore freezes to the
// same building answers as the re-inference that wrote it. Each vote is a
// packed (building, row) key; one integer sort groups the votes by
// building, and each building's few points, sorted on their own, turn the
// count into run lengths.
func (s *Store) tally() (byBld map[model.BuildingID]geo.Point, answerable, located int) {
	votes := make([]uint64, 0, len(s.rows))
	for i := range s.rows {
		r := &s.rows[i]
		if r.registered || r.located {
			answerable++
		}
		if r.located {
			located++
			if r.registered {
				votes = append(votes, uint64(uint32(r.bld))<<32|uint64(i))
			}
		}
	}
	slices.Sort(votes)
	buildings := 0
	for i := range votes {
		if i == 0 || votes[i]>>32 != votes[i-1]>>32 {
			buildings++
		}
	}
	byBld = make(map[model.BuildingID]geo.Point, buildings)
	var pts []geo.Point
	for i := 0; i < len(votes); {
		bld := votes[i] >> 32
		pts = pts[:0]
		for ; i < len(votes) && votes[i]>>32 == bld; i++ {
			pts = append(pts, s.rows[uint32(votes[i])].loc)
		}
		slices.SortFunc(pts, comparePoints)
		bestN := 0
		for j := 0; j < len(pts); {
			run := j
			for j < len(pts) && pts[j] == pts[run] {
				j++
			}
			if j-run > bestN { // the first of equal runs is the smaller point
				byBld[model.BuildingID(uint32(bld))], bestN = pts[run], j-run
			}
		}
	}
	return byBld, answerable, located
}

// answer evaluates the paper's fallback chain for one row: the address-level
// result, else the building-level majority, else the geocoded location. The
// paper notes the building fallback also serves addresses never seen in
// history, as long as the segmentation tool resolves their building. ok is
// false for a row with nothing to answer with.
func (r *storeRow) answer(byBld map[model.BuildingID]geo.Point) (FrozenAnswer, bool) {
	if r.located {
		return FrozenAnswer{Loc: r.loc, Src: SourceAddress, Conf: r.conf}, true
	}
	if !r.registered {
		return FrozenAnswer{Src: SourceNone}, false
	}
	if loc, ok := byBld[r.bld]; ok {
		return FrozenAnswer{Loc: loc, Src: SourceBuilding}, true
	}
	return FrozenAnswer{Loc: r.geocode, Src: SourceGeocode}, true
}

// LoadDataset registers every address of a dataset (buildings + geocodes).
func (s *Store) LoadDataset(ds *model.Dataset) {
	s.grow(len(ds.Addresses))
	for _, a := range ds.Addresses {
		s.RegisterAddress(a.ID, a.Building, a.Geocode)
	}
}
