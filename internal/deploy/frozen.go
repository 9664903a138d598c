package deploy

import (
	"math"
	"math/bits"
	"math/rand/v2"

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
// once at freeze time, so a steady-state query is one probe of a flat table
// with no locks and no allocations. A FrozenStore is immutable after Freeze;
// it is everything a shard serves, reports, and snapshots, so the Store it
// was frozen from need not outlive the Freeze call (see engine's
// atomic.Pointer publish).
//
// The table is open-addressed with linear probing: a power-of-two []slot at
// most 7/8 full, each slot 32 bytes, so a hit reads one cache line. Keys are
// placed Robin Hood style ordered by (probe distance, id), which makes the
// layout a function of the answers alone: two stores frozen from the same
// rows in any order are reflect.DeepEqual.
type FrozenStore struct {
	slots []slot
	// shift turns a hash into a home slot: 64 - log2(len(slots)).
	shift uint8
	// n counts the occupied slots; inferred the SourceAddress answers.
	n        int
	inferred int
}

// slot is one table entry, a FrozenAnswer and its address in 32 bytes.
// src is SourceNone in an empty slot: no answer has it.
type slot struct {
	id   model.AddressID
	conf float32
	loc  geo.Point
	src  Source
}

// hashMul is the odd multiplier of the table's multiply-shift hash, drawn
// once per process as Go seeds its maps, so no fixed set of ids can force
// long probe chains.
var hashMul = drawMultiplier(rand.Uint64)

// drawMultiplier draws odd multipliers until one spreads dense ids evenly.
// When a/2^64 lies near a fraction p/q with a small q, ids q apart hash to
// neighbouring slots, and ids numbered 0, 1, 2, ... — as datasets number
// their addresses — pile up in long runs: over a dense 200,000-id table, one
// multiplier in ten drawn at random put the mean probe distance above 1.6
// slots and one in a hundred above 18, where a lookup costs what a Go map's
// does. a/2^64 keeps away from every such fraction when its continued
// fraction has no large partial quotient (the golden-ratio multiplier of
// Fibonacci hashing has all 1s). A draw with none above 8 before the
// denominators reach 2^31 holds the mean under one slot at every table size
// tried, and about one odd multiplier in 80 is one.
func drawMultiplier(draw func() uint64) uint64 {
	for {
		if a := draw() | 1; evenSpread(a) {
			return a
		}
	}
}

// evenSpread reports whether a/2^64 has no partial quotient above 8 before
// its convergents' denominators reach 2^31. Euclid's algorithm on (2^64, a)
// yields the quotients in turn; q is the denominator of the convergent the
// latest one ends.
func evenSpread(a uint64) bool {
	quo, rem := math.MaxUint64/a, math.MaxUint64%a+1 // 2^64 = quo*a + rem; a is odd
	num, den := a, rem
	prev, q := uint64(1), quo
	for quo <= 8 {
		if den == 0 || q >= 1<<31 {
			return true
		}
		quo = num / den
		num, den = den, num%den
		prev, q = q, quo*q+prev
	}
	return false
}

// home returns the slot an address's probe starts at.
func (f *FrozenStore) home(id model.AddressID) uint64 { return home(id, f.shift) }

// Freeze evaluates the fallback chain for every address the store knows
// about — whether it has an inferred location, only a registered building,
// or only a geocode — into an immutable FrozenStore. The store stays usable
// and mutable; later writes are invisible to the frozen copy.
func (s *Store) Freeze() *FrozenStore {
	byBld, answerable, located := s.tally()
	size := tableSize(answerable)
	f := &FrozenStore{
		slots:    make([]slot, size),
		shift:    uint8(64 - bits.TrailingZeros(uint(size))),
		n:        answerable,
		inferred: located,
	}
	for i := range f.slots {
		f.slots[i].src = SourceNone
	}
	for i := range s.rows {
		if a, ok := s.rows[i].answer(byBld); ok {
			f.insert(slot{id: s.rows[i].id, conf: a.Conf, loc: a.Loc, src: a.Src})
		}
	}
	return f
}

// insert places e, an id not yet in the table. Walking e's probe sequence,
// an entry nearer its own home than e is to e's — or as near, with a larger
// id — gives up its slot to e and walks on in e's place.
func (f *FrozenStore) insert(e slot) {
	mask := uint64(len(f.slots) - 1)
	i := f.home(e.id)
	for d := uint64(0); ; d++ {
		s := &f.slots[i]
		if s.src == SourceNone {
			*s = e
			return
		}
		if sd := (i - f.home(s.id)) & mask; sd < d || (sd == d && e.id < s.id) {
			*s, e, d = e, *s, sd
		}
		i = (i + 1) & mask
	}
}

// find returns addr's slot, or nil (always, on a nil store). The probe ends
// at an empty slot or at an entry nearer its home than addr would be to its
// own: Robin Hood placement would have put addr before it.
func (f *FrozenStore) find(addr model.AddressID) *slot {
	if f == nil {
		return nil
	}
	mask := uint64(len(f.slots) - 1)
	i := f.home(addr)
	for d := uint64(0); ; d++ {
		s := &f.slots[i]
		if s.src == SourceNone {
			return nil
		}
		if s.id == addr {
			return s
		}
		if (i-f.home(s.id))&mask < d {
			return nil
		}
		i = (i + 1) & mask
	}
}

// Query answers a delivery-location request from the precomputed chain. It
// is nil-safe (a nil FrozenStore answers SourceNone) so cold serving paths
// need no extra branch, and it never allocates.
func (f *FrozenStore) Query(addr model.AddressID) (geo.Point, Source) {
	s := f.find(addr)
	if s == nil {
		return geo.Point{}, SourceNone
	}
	return s.loc, s.src
}

// Lookup returns the full precomputed answer (location, source, confidence)
// for an address. Nil-safe and allocation-free, like Query — the serving
// path uses it when it also needs the confidence stamp.
func (f *FrozenStore) Lookup(addr model.AddressID) (FrozenAnswer, bool) {
	s := f.find(addr)
	if s == nil {
		return FrozenAnswer{Src: SourceNone}, false
	}
	return s.answer(), true
}

// answer is the slot's FrozenAnswer.
func (s *slot) answer() FrozenAnswer {
	return FrozenAnswer{Loc: s.loc, Src: s.src, Conf: s.conf}
}

// Len returns the number of answerable addresses (any fallback level).
func (f *FrozenStore) Len() int {
	if f == nil {
		return 0
	}
	return f.n
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
	for i := range f.slots {
		if s := &f.slots[i]; s.src != SourceNone {
			fn(s.id, s.answer())
		}
	}
}
