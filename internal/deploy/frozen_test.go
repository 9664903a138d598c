package deploy

import (
	"context"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"dlinfma/internal/deploy/api"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
)

// populatedStore builds a store exercising every fallback level: address 1
// has an inferred location, address 2 only a building majority, address 3
// only a geocode, address 4 nothing answerable.
func populatedStore() *Store {
	s := NewStore()
	s.RegisterAddress(1, 10, geo.Point{X: 100, Y: 100})
	s.RegisterAddress(2, 10, geo.Point{X: 110, Y: 100})
	s.RegisterAddress(3, 11, geo.Point{X: 500, Y: 500})
	s.Put(1, geo.Point{X: 102, Y: 101})
	return s
}

func TestFrozenStoreMatchesStore(t *testing.T) {
	s := populatedStore()
	f := s.Freeze()
	for _, addr := range []model.AddressID{1, 2, 3, 99} {
		wantLoc, wantSrc := s.Query(addr)
		gotLoc, gotSrc := f.Query(addr)
		if gotLoc != wantLoc || gotSrc != wantSrc {
			t.Errorf("addr %d: frozen (%v,%v) != store (%v,%v)", addr, gotLoc, gotSrc, wantLoc, wantSrc)
		}
	}
	if f.Len() != 3 {
		t.Errorf("frozen Len = %d, want 3 (every answerable address)", f.Len())
	}
	// Address 2 answers by building 10's majority; building 11 has none, so
	// address 3 falls through to its geocode.
	if loc, src := f.Query(2); src != SourceBuilding || loc != (geo.Point{X: 102, Y: 101}) {
		t.Errorf("frozen addr 2 = %v %v, want building 10's majority", loc, src)
	}
	if loc, src := f.Query(3); src != SourceGeocode || loc != (geo.Point{X: 500, Y: 500}) {
		t.Errorf("frozen addr 3 = %v %v, want its geocode", loc, src)
	}
}

func TestFrozenStoreIsImmutable(t *testing.T) {
	s := populatedStore()
	f := s.Freeze()
	// Later writes to the live store must not leak into the frozen copy.
	s.Put(2, geo.Point{X: 900, Y: 900})
	s.Put(1, geo.Point{X: 901, Y: 901})
	if loc, src := f.Query(1); src != SourceAddress || loc != (geo.Point{X: 102, Y: 101}) {
		t.Errorf("frozen addr 1 moved after store write: %v %v", loc, src)
	}
	if loc, src := f.Query(2); src != SourceBuilding || loc != (geo.Point{X: 102, Y: 101}) {
		t.Errorf("frozen addr 2 moved after store write: %v %v", loc, src)
	}
	// A re-freeze picks the writes up.
	if loc, src := s.Freeze().Query(2); src != SourceAddress || loc != (geo.Point{X: 900, Y: 900}) {
		t.Errorf("refrozen addr 2 = %v %v", loc, src)
	}
}

func TestFrozenStoreNilSafe(t *testing.T) {
	var f *FrozenStore
	if _, src := f.Query(1); src != SourceNone {
		t.Errorf("nil frozen store source = %v", src)
	}
	if f.Len() != 0 || f.Inferred() != 0 {
		t.Error("nil frozen store has entries")
	}
	f.Each(func(model.AddressID, FrozenAnswer) { t.Error("nil frozen store iterated an answer") })
}

// TestFrozenQueryZeroAllocs guards the tentpole contract: a frozen-store
// query is one map lookup with zero allocations.
func TestFrozenQueryZeroAllocs(t *testing.T) {
	f := populatedStore().Freeze()
	addrs := []model.AddressID{1, 2, 3, 99}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		f.Query(addrs[i%len(addrs)])
		i++
	}); n != 0 {
		t.Errorf("FrozenStore.Query allocates %.1f/op, want 0", n)
	}
}

// TestStoreMajorityMatchesRecount cross-checks the building majorities
// against a brute-force recount of a shadow copy of the current locations
// after every write, re-Puts included: a replaced location's vote must be
// gone, not merely outvoted.
func TestStoreMajorityMatchesRecount(t *testing.T) {
	s := NewStore()
	rng := rand.New(rand.NewSource(7))
	locs := []geo.Point{{X: 1}, {X: 2}, {X: 3}, {X: 4}}
	const addrs, buildings = 64, 3
	for i := 0; i < addrs; i++ {
		s.RegisterAddress(model.AddressID(i), model.BuildingID(i%buildings), geo.Point{X: float64(i)})
	}
	// One more address per building is never located, so it answers with
	// its building's majority once the building has one.
	probe := func(bld int) model.AddressID { return model.AddressID(addrs + bld) }
	for bld := 0; bld < buildings; bld++ {
		s.RegisterAddress(probe(bld), model.BuildingID(bld), geo.Point{X: -1})
	}
	current := map[model.AddressID]geo.Point{}
	for step := 0; step < 500; step++ {
		addr := model.AddressID(rng.Intn(addrs))
		current[addr] = locs[rng.Intn(len(locs))]
		s.Put(addr, current[addr])

		votes := [buildings]map[geo.Point]int{}
		for a, loc := range current {
			if votes[a%buildings] == nil {
				votes[a%buildings] = map[geo.Point]int{}
			}
			votes[a%buildings][loc]++
		}
		for bld, v := range votes {
			// The majority is the most-voted location, equal counts going to
			// the smaller (X, Y).
			var want geo.Point
			bestN := 0
			for loc, n := range v {
				if n > bestN || (n == bestN && pointLess(loc, want)) {
					want, bestN = loc, n
				}
			}
			got, src := s.Query(probe(bld))
			if ok := src == SourceBuilding; ok != (bestN > 0) || (ok && got != want) {
				t.Fatalf("step %d: building %d serves %v (%v), recount says %v with %d votes",
					step, bld, got, ok, want, bestN)
			}
		}
	}
}

// TestStoreMajorityIsOfCurrentRows: the building answer is a function of
// what the rows hold when it is asked for. Registering after Put must count
// the vote (Put used to return before voting for an unregistered address),
// and a second Put must take the first one's vote back (it used to stay
// counted, so a building could answer with a location none of its addresses
// had any more).
func TestStoreMajorityIsOfCurrentRows(t *testing.T) {
	const bld = 10
	a, b := geo.Point{X: 1, Y: 1}, geo.Point{X: 2, Y: 2}
	gc := geo.Point{X: 50, Y: 50}
	for _, tc := range []struct {
		name  string
		write func(s *Store)
		want  geo.Point
	}{
		{"register then put", func(s *Store) {
			s.RegisterAddress(1, bld, gc)
			s.Put(1, a)
		}, a},
		{"put then register", func(s *Store) {
			s.Put(1, a)
			s.RegisterAddress(1, bld, gc)
		}, a},
		{"re-put drops the stale vote", func(s *Store) {
			s.RegisterAddress(1, bld, gc)
			s.RegisterAddress(2, bld, gc)
			s.Put(1, a)
			s.Put(2, a)
			s.Put(1, b)
			s.Put(2, b) // a: no voter left, b: two
		}, b},
		{"re-put of one voter leaves a tie to the smaller point", func(s *Store) {
			s.RegisterAddress(1, bld, gc)
			s.RegisterAddress(2, bld, gc)
			s.Put(1, b)
			s.Put(2, b)
			s.Put(2, a) // one vote each
		}, a},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore()
			s.RegisterAddress(9, bld, gc) // answered by the building
			tc.write(s)
			f := s.Freeze()
			for name, q := range map[string]func(model.AddressID) (geo.Point, Source){"store": s.Query, "frozen": f.Query} {
				if loc, src := q(9); src != SourceBuilding || loc != tc.want {
					t.Errorf("%s: sibling answered %v %v, want %v by building", name, loc, src, tc.want)
				}
			}
		})
	}
}

// TestBuildingMajorityOrderIndependent feeds one set of votes, with every
// building tied between two locations, in opposite orders: the frozen stores
// must be equal, down to the building fallbacks. A snapshot restore replays
// the votes in map order, so anything less lets two replicas of one snapshot
// disagree.
func TestBuildingMajorityOrderIndependent(t *testing.T) {
	const addrs = 40
	locs := []geo.Point{{X: 7, Y: 1}, {X: 3, Y: 9}, {X: 3, Y: 2}, {X: 8, Y: 8}}
	build := func(order []int) *FrozenStore {
		s := NewStore()
		for i := 0; i < addrs+8; i++ { // the last 8 addresses answer by building
			s.RegisterAddress(model.AddressID(i), model.BuildingID(i%4), geo.Point{X: float64(i)})
		}
		for _, i := range order {
			// Each building's ten voters split 5/5 between two locations.
			s.Put(model.AddressID(i), locs[(i%4+i/4%2)%len(locs)])
			s.SetConfidence(model.AddressID(i), float32(i+1)/addrs)
		}
		return s.Freeze()
	}
	forward := make([]int, addrs)
	for i := range forward {
		forward[i] = i
	}
	backward := make([]int, addrs)
	for i := range backward {
		backward[i] = addrs - 1 - i
	}
	a, b := build(forward), build(backward)
	if !reflect.DeepEqual(a, b) {
		c := DiffFrozen(a, b, 0, nil)
		t.Fatalf("put order changed the frozen store: %d answers moved, %d added, %d dropped",
			c.Moved, c.Added, c.Dropped)
	}
	for bld := model.BuildingID(0); bld < 4; bld++ {
		x, y := locs[bld], locs[(int(bld)+1)%len(locs)]
		want := x
		if pointLess(y, x) {
			want = y
		}
		if got, _ := a.Query(model.AddressID(addrs) + model.AddressID(bld)); got != want {
			t.Errorf("building %d tied between %v and %v serves %v, want %v", bld, x, y, got, want)
		}
	}
	if a.Inferred() != addrs || a.Len() != addrs+8 {
		t.Errorf("Inferred = %d, Len = %d, want %d and %d", a.Inferred(), a.Len(), addrs, addrs+8)
	}
	n := 0
	a.Each(func(id model.AddressID, ans FrozenAnswer) {
		if got, _ := a.Lookup(id); got != ans {
			t.Errorf("Each handed address %d %+v, Lookup says %+v", id, ans, got)
		}
		n++
	})
	if n != a.Len() {
		t.Errorf("Each visited %d answers, Len says %d", n, a.Len())
	}
}

// storeOnlyEngine adapts a bare Store to the Engine interface.
type storeOnlyEngine struct{ st *Store }

func (e storeOnlyEngine) QueryCtx(_ context.Context, addr model.AddressID) (geo.Point, Source) {
	return e.st.Query(addr)
}
func (e storeOnlyEngine) QueryBatch(ctx context.Context, addrs []model.AddressID, out []BatchAnswer) ([]BatchAnswer, error) {
	out = GrowAnswers(out, len(addrs))
	for i, addr := range addrs {
		out[i].Loc, out[i].Src = e.st.Query(addr)
	}
	return out, ctx.Err()
}
func (e storeOnlyEngine) SwapReports(int) []api.SwapReport { return nil }
func (e storeOnlyEngine) Ingest(context.Context, []model.Trip, []model.AddressInfo, map[model.AddressID]geo.Point) error {
	return nil
}
func (e storeOnlyEngine) StartReinfer() (JobStatus, error) { return JobStatus{}, nil }
func (e storeOnlyEngine) ReinferStatus() (JobStatus, bool) { return JobStatus{}, false }
func (e storeOnlyEngine) Status() EngineStatus             { return EngineStatus{Ready: true} }
func (e storeOnlyEngine) WriteSnapshot(io.Writer) error    { return nil }
