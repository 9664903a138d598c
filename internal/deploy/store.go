// Package deploy is the serving package of the deployed system of Section
// VI: the delivery-location store with the paper's three-level query
// fallback (address -> building majority -> geocode), writable while a
// re-inference fills it and frozen to serve, and the /v1 HTTP service every
// read and write request runs through. The two applications the paper builds
// on the store live with the examples that run them (examples/routeplanning,
// examples/availability).
package deploy

import (
	"cmp"
	"slices"
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
// one per address behind one id index; Freeze alone derives the answers, the
// building majorities and the counts from the rows as they stand, so nothing
// depends on the order of RegisterAddress and Put or remembers a location a
// later Put replaced. It is safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	rows  []storeRow
	index map[model.AddressID]int32
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
	return &Store{index: make(map[model.AddressID]int32)}
}

// Grow makes room for n more addresses, so a bulk load of known size does
// not pay for growing the rows and their index step by step.
func (s *Store) Grow(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rows = slices.Grow(s.rows, n)
	if len(s.index) == 0 {
		s.index = make(map[model.AddressID]int32, n)
	}
}

// rowLocked returns addr's row, adding an empty one the first time addr is
// named. The pointer is good until the next call.
func (s *Store) rowLocked(addr model.AddressID) *storeRow {
	i, ok := s.index[addr]
	if !ok {
		i = int32(len(s.rows))
		s.index[addr] = i
		s.rows = append(s.rows, storeRow{id: addr})
	}
	return &s.rows[i]
}

// SetConfidence records the model's top-1 probability behind an address's
// inferred location. Freeze stamps it into the served answer so the read
// path can flag low-confidence serving without touching the matcher.
func (s *Store) SetConfidence(addr model.AddressID, conf float32) {
	s.mu.Lock()
	s.rowLocked(addr).conf = conf
	s.mu.Unlock()
}

// RegisterAddress records an address's building and geocode (the fallback
// levels). Call before or after Put in any order.
func (s *Store) RegisterAddress(addr model.AddressID, bld model.BuildingID, geocode geo.Point) {
	s.mu.Lock()
	r := s.rowLocked(addr)
	r.bld, r.geocode, r.registered = bld, geocode, true
	s.mu.Unlock()
}

// Put stores the inferred delivery location of an address, replacing any
// earlier one.
func (s *Store) Put(addr model.AddressID, loc geo.Point) {
	s.mu.Lock()
	r := s.rowLocked(addr)
	// Read before write: a restore's Puts land on scattered rows (the keys
	// arrive in byte order), and unconditional stores made
	// BenchmarkRestoreSnapshot's 200,000 addresses about 5 % slower, in wall
	// and in CPU time, on two shared vCPUs.
	if !r.located {
		r.located = true
	}
	r.loc = loc
	s.mu.Unlock()
}

// pointLess orders points by X, then Y.
func pointLess(a, b geo.Point) bool {
	return a.X < b.X || (a.X == b.X && a.Y < b.Y)
}

// tallyLocked sweeps the rows once for what Freeze derives from them: the
// number of rows with anything to answer with (registered or located), the
// number located, and every building's majority — the location most of the
// building's located addresses currently have, as the paper describes, equal
// counts going to the smaller (X, Y), so the answer depends on the votes and
// never on the order they were cast in, and a snapshot restore freezes to the
// same building answers as the re-inference that wrote it. Sorting the votes
// by (building, X, Y) turns the count into run lengths.
func (s *Store) tallyLocked() (byBld map[model.BuildingID]geo.Point, answerable, located int) {
	type vote struct {
		bld model.BuildingID
		loc geo.Point
	}
	votes := make([]vote, 0, len(s.rows))
	for i := range s.rows {
		r := &s.rows[i]
		if r.registered || r.located {
			answerable++
		}
		if r.located {
			located++
			if r.registered {
				votes = append(votes, vote{r.bld, r.loc})
			}
		}
	}
	slices.SortFunc(votes, func(a, b vote) int {
		switch {
		case a.bld != b.bld:
			return cmp.Compare(a.bld, b.bld)
		case a.loc == b.loc:
			return 0
		case pointLess(a.loc, b.loc):
			return -1
		}
		return 1
	})
	buildings := 0
	for i := range votes {
		if i == 0 || votes[i].bld != votes[i-1].bld {
			buildings++
		}
	}
	byBld = make(map[model.BuildingID]geo.Point, buildings)
	for i := 0; i < len(votes); {
		bld, bestN := votes[i].bld, 0
		for i < len(votes) && votes[i].bld == bld {
			run := i
			for i < len(votes) && votes[i] == votes[run] {
				i++
			}
			if i-run > bestN { // the first of equal runs is the smaller point
				byBld[bld], bestN = votes[run].loc, i-run
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
	s.Grow(len(ds.Addresses))
	for _, a := range ds.Addresses {
		s.RegisterAddress(a.ID, a.Building, a.Geocode)
	}
}
