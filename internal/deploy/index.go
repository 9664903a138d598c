package deploy

import (
	"math/bits"

	"dlinfma/internal/model"
)

// IDIndex maps address ids to the rows they are filed under: an
// open-addressed table of (id, row) pairs, probed linearly from the home
// slot of the FrozenStore's own multiply-shift hash and kept at most 7/8
// full, as the FrozenStore's table is. Rows are never removed. The zero
// IDIndex is empty and ready to use; it has one owner and no lock.
type IDIndex struct {
	slots []idSlot
	// shift turns a hash into a home slot: 64 - log2(len(slots)).
	shift uint8
	n     int
}

// idSlot is one table entry. next holds the row plus one, so the zero slot
// is the empty one and a new table needs no pass to mark its slots empty.
type idSlot struct {
	id   model.AddressID
	next int32
}

// home returns the slot an address's probe starts at, in a table of
// 2^(64-shift) slots. It is the one id hash: the FrozenStore and IDIndex
// both probe from it.
func home(id model.AddressID, shift uint8) uint64 {
	return (uint64(uint32(id)) * hashMul) >> shift
}

// tableSize is the number of slots, a power of two, of the smallest table
// that holds n entries at most 7/8 full.
func tableSize(n int) int {
	size := 1
	for size*7/8 < n {
		size <<= 1
	}
	return size
}

// Grow makes room for n more ids, so a bulk load of known size fills the
// table without rehashing it on the way.
func (x *IDIndex) Grow(n int) {
	if size := tableSize(x.n + n); size > len(x.slots) {
		x.rehash(size)
	}
}

// Add returns the row id is filed under, filing it under row first if the
// index does not hold it yet; added reports that it did not.
func (x *IDIndex) Add(id model.AddressID, row int32) (got int32, added bool) {
	if x.n+1 > len(x.slots)*7/8 {
		x.rehash(tableSize(x.n + 1))
	}
	mask := uint64(len(x.slots) - 1)
	for i := home(id, x.shift); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.next == 0 {
			*s = idSlot{id: id, next: row + 1}
			x.n++
			return row, true
		}
		if s.id == id {
			return s.next - 1, false
		}
	}
}

// rehash moves every entry into a new table of size slots.
func (x *IDIndex) rehash(size int) {
	old := x.slots
	x.slots = make([]idSlot, size)
	x.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, e := range old {
		if e.next == 0 {
			continue
		}
		i := home(e.id, x.shift)
		for x.slots[i].next != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = e
	}
}
