package deploy

import (
	"context"
	"io"
	"math/rand"
	"reflect"
	"testing"

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
	if loc, ok := f.QueryBuilding(10); !ok || loc != (geo.Point{X: 102, Y: 101}) {
		t.Errorf("frozen QueryBuilding(10) = %v %v", loc, ok)
	}
	if _, ok := f.QueryBuilding(11); ok {
		t.Error("building 11 has no majority, QueryBuilding must miss")
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
	if _, ok := f.QueryBuilding(1); ok {
		t.Error("nil frozen store answered a building")
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

// TestStorePutIncrementalMajority cross-checks the O(1) running argmax in
// Put against a brute-force recount of the vote table after every write.
func TestStorePutIncrementalMajority(t *testing.T) {
	s := NewStore()
	rng := rand.New(rand.NewSource(7))
	locs := []geo.Point{{X: 1}, {X: 2}, {X: 3}, {X: 4}}
	for i := 0; i < 64; i++ {
		s.RegisterAddress(model.AddressID(i), model.BuildingID(i%3), geo.Point{X: float64(i)})
	}
	for step := 0; step < 500; step++ {
		addr := model.AddressID(rng.Intn(64))
		s.Put(addr, locs[rng.Intn(len(locs))])

		s.mu.RLock()
		for bld, votes := range s.bldVotes {
			// The majority is the most-voted location, equal counts going to
			// the smaller (X, Y).
			var want geo.Point
			bestN := 0
			for loc, n := range votes {
				if n > bestN || (n == bestN && pointLess(loc, want)) {
					want, bestN = loc, n
				}
			}
			if got := s.byBld[bld]; got != want {
				t.Fatalf("step %d: building %d serves %v (%d votes), recount says %v (%d votes)",
					step, bld, got, votes[got], want, bestN)
			}
			if s.bldBestN[bld] != bestN {
				t.Fatalf("step %d: building %d tracked best %d, recount %d",
					step, bld, s.bldBestN[bld], bestN)
			}
		}
		s.mu.RUnlock()
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
		if got, _ := a.QueryBuilding(bld); got != want {
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

// TestQueryBatchFallbackLoop covers the per-key fallback used for engines
// without a native bulk path, including slice recycling.
func TestQueryBatchFallbackLoop(t *testing.T) {
	st := populatedStore()
	e := storeOnlyEngine{st}
	scratch := make([]BatchAnswer, 0, 8)
	out, err := QueryBatch(context.Background(), e, []model.AddressID{2, 99, 1}, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || cap(out) != 8 {
		t.Fatalf("out len=%d cap=%d, want len 3 reusing cap-8 scratch", len(out), cap(out))
	}
	if out[0].Src != SourceBuilding || out[1].Src != SourceNone || out[2].Src != SourceAddress {
		t.Fatalf("sources %v %v %v", out[0].Src, out[1].Src, out[2].Src)
	}
}

// storeOnlyEngine adapts a bare Store to the Engine interface without
// implementing BatchQuerier, pinning the fallback path.
type storeOnlyEngine struct{ st *Store }

func (e storeOnlyEngine) Query(addr model.AddressID) (geo.Point, Source) { return e.st.Query(addr) }
func (e storeOnlyEngine) Ingest(context.Context, []model.Trip, []model.AddressInfo, map[model.AddressID]geo.Point) error {
	return nil
}
func (e storeOnlyEngine) StartReinfer() (JobStatus, error) { return JobStatus{}, nil }
func (e storeOnlyEngine) ReinferStatus() (JobStatus, bool) { return JobStatus{}, false }
func (e storeOnlyEngine) Status() EngineStatus             { return EngineStatus{Ready: true} }
func (e storeOnlyEngine) WriteSnapshot(io.Writer) error    { return nil }
