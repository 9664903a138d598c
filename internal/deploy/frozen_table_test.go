package deploy

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"dlinfma/internal/geo"
	"dlinfma/internal/model"
)

// refRow is what the writes said about one address, kept beside the store.
type refRow struct {
	bld                 model.BuildingID
	geocode, loc        geo.Point
	conf                float32
	registered, located bool
}

// referenceFreeze is the fallback chain of Figure 14 written out apart from
// the code that fills the table, in a Go map: every building's votes are
// recounted from its registered and located addresses — most votes wins,
// equal counts going to the smaller (X, Y) — and each address answers with
// its own location, else its building's majority, else its geocode.
func referenceFreeze(rows map[model.AddressID]refRow) map[model.AddressID]FrozenAnswer {
	votes := map[model.BuildingID]map[geo.Point]int{}
	for _, r := range rows {
		if r.registered && r.located {
			if votes[r.bld] == nil {
				votes[r.bld] = map[geo.Point]int{}
			}
			votes[r.bld][r.loc]++
		}
	}
	majority := map[model.BuildingID]geo.Point{}
	for bld, v := range votes {
		var best geo.Point
		bestN := 0
		for loc, n := range v {
			smaller := loc.X < best.X || loc.X == best.X && loc.Y < best.Y
			if n > bestN || n == bestN && smaller {
				best, bestN = loc, n
			}
		}
		majority[bld] = best
	}
	ref := map[model.AddressID]FrozenAnswer{}
	for id, r := range rows {
		maj, ok := majority[r.bld]
		switch {
		case r.located:
			ref[id] = FrozenAnswer{Loc: r.loc, Src: SourceAddress, Conf: r.conf}
		case !r.registered:
		case ok:
			ref[id] = FrozenAnswer{Loc: maj, Src: SourceBuilding}
		default:
			ref[id] = FrozenAnswer{Loc: r.geocode, Src: SourceGeocode}
		}
	}
	return ref
}

// reversed returns a store holding s's rows in the opposite order, each
// filed in the new store's own index.
func reversed(s *Store) *Store {
	r := NewStore()
	for i := len(s.rows) - 1; i >= 0; i-- {
		*r.row(s.rows[i].id) = s.rows[i]
	}
	return r
}

// fuzzIDs are the addresses the fuzz ops name: the ends of the int32 range,
// zero and its neighbours, and ids that share their home slot with id 0 in
// tables of 2, 4, 8 and 16 slots under this process's multiplier.
func fuzzIDs() []model.AddressID {
	ids := []model.AddressID{0, 1, -1, 2, -2, math.MinInt32, math.MinInt32 + 1, math.MaxInt32, math.MaxInt32 - 1, 1 << 20}
	for bits := 1; bits <= 4; bits++ {
		f := &FrozenStore{shift: uint8(64 - bits)}
		found := 0
		for id := model.AddressID(3); found < 4; id++ {
			if f.home(id) == f.home(0) {
				ids = append(ids, id)
				found++
			}
		}
	}
	return ids
}

// FuzzFrozenStore decodes the input, four bytes an op, into RegisterAddress,
// Put and SetConfidence calls over fuzzIDs, freezes the store, and holds
// every read of the table to referenceFreeze's map of the same writes. The
// same rows frozen in the opposite order must give an equal store.
func FuzzFrozenStore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 1, 0, 2, 2, 2, 0, 200, 0})
	f.Add([]byte{0, 10, 3, 3, 0, 11, 3, 4, 0, 12, 3, 5, 0, 13, 3, 6, 1, 11, 9, 9, 1, 12, 9, 9})
	f.Add([]byte{1, 5, 1, 2, 1, 6, 1, 2, 0, 7, 0, 0, 0, 8, 0, 1, 2, 5, 64, 0, 1, 3, 4, 4})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 0, 0, 2, 1, 0, 1, 0, 3, 3, 1, 1, 2, 1}) // building 1 tied 1-1
	// Nine ids, eight of them sharing id 0's home slot in a small table:
	// the store's index grows from 2 slots to 16 on the way, three resizes.
	f.Add([]byte{0, 0, 1, 1, 0, 10, 1, 2, 0, 11, 2, 3, 0, 12, 2, 4, 0, 14, 3, 5, 0, 15, 3, 6,
		1, 18, 1, 1, 1, 19, 2, 2, 1, 22, 1, 1, 2, 22, 128, 0, 1, 10, 1, 1})
	ids := fuzzIDs()
	probes := slices.Concat(ids, []model.AddressID{1 << 21}) // 1<<21 is never named
	f.Fuzz(func(t *testing.T, ops []byte) {
		s, rows := NewStore(), map[model.AddressID]refRow{}
		for ; len(ops) >= 4; ops = ops[4:] {
			id, v, w := ids[int(ops[1])%len(ids)], ops[2], ops[3]
			r := rows[id]
			switch ops[0] % 3 {
			case 0:
				bld, gc := model.BuildingID(v%4), geo.Point{X: float64(v), Y: float64(w)}
				if !r.registered { // the first naming wins
					r.bld, r.geocode, r.registered = bld, gc, true
				}
				s.RegisterAddress(id, bld, gc)
			case 1:
				r.loc, r.located = geo.Point{X: float64(v % 4), Y: float64(w % 4)}, true
				s.Put(id, r.loc)
			case 2:
				r.conf = float32(v) / 255
				s.SetConfidence(id, r.conf)
			}
			rows[id] = r
		}
		fz, ref := s.Freeze(), referenceFreeze(rows)
		inferred := 0
		for _, a := range ref {
			if a.Src == SourceAddress {
				inferred++
			}
		}
		if fz.Len() != len(ref) || fz.Inferred() != inferred {
			t.Fatalf("Len %d, Inferred %d; the map holds %d answers, %d inferred", fz.Len(), fz.Inferred(), len(ref), inferred)
		}
		for _, id := range probes {
			want, wantOK := ref[id]
			if !wantOK {
				want = FrozenAnswer{Src: SourceNone}
			}
			if got, ok := fz.Lookup(id); got != want || ok != wantOK {
				t.Fatalf("Lookup(%d) = %+v %v, the map says %+v %v", id, got, ok, want, wantOK)
			}
			if loc, src := fz.Query(id); loc != want.Loc || src != want.Src {
				t.Fatalf("Query(%d) = %v %v, the map says %v %v", id, loc, src, want.Loc, want.Src)
			}
		}
		seen := map[model.AddressID]bool{}
		fz.Each(func(id model.AddressID, a FrozenAnswer) {
			if seen[id] || ref[id] != a {
				t.Fatalf("Each handed address %d %+v (seen before: %v), the map says %+v", id, a, seen[id], ref[id])
			}
			seen[id] = true
		})
		if len(seen) != len(ref) {
			t.Fatalf("Each visited %d answers, the map holds %d", len(seen), len(ref))
		}
		if !reflect.DeepEqual(fz, reversed(s).Freeze()) {
			t.Fatal("the same rows in the opposite order froze to a different table")
		}
	})
}

// TestHashSpreadsDenseIDs: whatever multiplier a process draws, ids numbered
// 0, 1, 2, ... sit on average under one slot from home, in a table as full
// as a power of two allows and in one the benchmark's city fills to 76 %.
func TestHashSpreadsDenseIDs(t *testing.T) {
	if !evenSpread(0x9e3779b97f4a7c15) || evenSpread(3) || evenSpread(1) {
		t.Fatal("evenSpread misjudges the golden-ratio multiplier, 3 or 1")
	}
	defer func(mul uint64) { hashMul = mul }(hashMul)
	for _, n := range []int{200_000, 7 << 15} {
		s := NewStore()
		for i := 0; i < n; i++ {
			s.Put(model.AddressID(i), geo.Point{})
		}
		for seed := uint64(0); seed < 8; seed++ {
			hashMul = drawMultiplier(rand.New(rand.NewPCG(seed, 1)).Uint64)
			f := s.Freeze()
			mask, dist := uint64(len(f.slots)-1), uint64(0)
			for i := range f.slots {
				if sl := &f.slots[i]; sl.src != SourceNone {
					dist += (uint64(i) - f.home(sl.id)) & mask
				}
			}
			if mean := float64(dist) / float64(n); mean >= 1 {
				t.Errorf("%d ids, multiplier %#x: mean probe distance %.2f slots", n, hashMul, mean)
			}
		}
	}
}
