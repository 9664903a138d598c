package deploy

import (
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
)

// FrozenAnswer is one precomputed query answer: the delivery location, the
// fallback level that produced it, and — for address-level answers — the
// model's top-1 probability behind the inference. Conf is 0 when unknown
// (fallback answers, legacy snapshots).
type FrozenAnswer struct {
	Loc  geo.Point
	Src  Source
	Conf float32
}

// FrozenStore is the read-only serving form of a Store: the full
// address -> building -> geocode fallback chain of Figure 14 is evaluated
// once at freeze time, so a steady-state query is a single map lookup with
// no locks and no allocations. A FrozenStore is immutable after Freeze; it
// is everything a shard serves, reports, and snapshots, so the Store it was
// frozen from need not outlive the Freeze call (see engine's atomic.Pointer
// publish).
type FrozenStore struct {
	answers map[model.AddressID]FrozenAnswer
	byBld   map[model.BuildingID]geo.Point
	// inferred counts the SourceAddress answers.
	inferred int
}

// Freeze evaluates the fallback chain for every address the store knows
// about — whether it has an inferred location, only a registered building,
// or only a geocode — into an immutable FrozenStore. The store stays usable
// and mutable; later writes are invisible to the frozen copy.
func (s *Store) Freeze() *FrozenStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	byBld := s.majoritiesLocked()
	f := &FrozenStore{
		answers:  make(map[model.AddressID]FrozenAnswer, len(s.rows)),
		byBld:    byBld,
		inferred: s.located,
	}
	for i := range s.rows {
		if a, ok := s.rows[i].answer(byBld); ok {
			f.answers[s.rows[i].id] = a
		}
	}
	return f
}

// Query answers a delivery-location request from the precomputed chain. It
// is nil-safe (a nil FrozenStore answers SourceNone) so cold serving paths
// need no extra branch, and it never allocates.
func (f *FrozenStore) Query(addr model.AddressID) (geo.Point, Source) {
	if f == nil {
		return geo.Point{}, SourceNone
	}
	a, ok := f.answers[addr]
	if !ok {
		return geo.Point{}, SourceNone
	}
	return a.Loc, a.Src
}

// Lookup returns the full precomputed answer (location, source, confidence)
// for an address. Nil-safe and allocation-free, like Query — the serving
// path uses it when it also needs the confidence stamp.
func (f *FrozenStore) Lookup(addr model.AddressID) (FrozenAnswer, bool) {
	if f == nil {
		return FrozenAnswer{Src: SourceNone}, false
	}
	a, ok := f.answers[addr]
	if !ok {
		return FrozenAnswer{Src: SourceNone}, false
	}
	return a, true
}

// QueryBuilding answers at building granularity from the frozen majority.
func (f *FrozenStore) QueryBuilding(bld model.BuildingID) (geo.Point, bool) {
	if f == nil {
		return geo.Point{}, false
	}
	loc, ok := f.byBld[bld]
	return loc, ok
}

// Len returns the number of answerable addresses (any fallback level).
func (f *FrozenStore) Len() int {
	if f == nil {
		return 0
	}
	return len(f.answers)
}

// Inferred returns the number of address-level answers — the addresses the
// model placed, as opposed to those answered by a fallback.
func (f *FrozenStore) Inferred() int {
	if f == nil {
		return 0
	}
	return f.inferred
}

// Each calls fn once per answerable address, in no particular order.
func (f *FrozenStore) Each(fn func(model.AddressID, FrozenAnswer)) {
	if f == nil {
		return
	}
	for addr, a := range f.answers {
		fn(addr, a)
	}
}
