package engine

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"dlinfma/internal/geo"
	"dlinfma/internal/geocode"
	"dlinfma/internal/model"
)

// The strict reader of the version-1 document. json.Unmarshal into snapshot
// is the definition of the format; this file reads, without reflection and
// without materialising a map or a key string, the one byte sequence the
// writers produce for it — Shard.WriteSnapshot's json.Encoder and a plain
// json.Marshal of the same struct:
//
//	{"version":1,"name":S,"addresses":A,"locations":L[,"confidences":C][,"matcher":M]}[\n]
//	A = null | [] | [{"ID":i,"Building":i,"Geocode":{"X":f,"Y":f},"POI":i,"GeocodeMode":i},...]
//	L, C = null | {} | {"<address id>":[f,f],...} and {"<address id>":f,...}
//
// with no whitespace, S free of escapes, every i a canonical decimal of its
// type, every f a JSON number in float range, object keys canonical address
// ids in strictly ascending byte order (the order encoding/json writes a
// map in, which also excludes a key seen twice), M one JSON value and
// nothing after it. Any other byte sequence — valid JSON or not — is "not
// mine": the caller hands the document to encoding/json, which decides
// whether it is accepted and what a rejected one answers.
// FuzzSnapshotDecode pins the two to each other.

// snapshotHead opens a canonical document. snapshotAddressHead opens every
// address of one, and nothing else in it (a name holding it would need an
// escaped quote): its count sizes the load before the scan.
const (
	snapshotHead        = `{"version":1,"name":"`
	snapshotAddressHead = `{"ID":`
)

// snapshotScanner is a cursor over a document; each method consumes what it
// names and reports false, position undefined, at the first byte that is not
// canonical.
type snapshotScanner struct {
	b []byte
	i int
}

// lit consumes the literal t.
func (s *snapshotScanner) lit(t string) bool {
	if len(s.b)-s.i < len(t) || string(s.b[s.i:s.i+len(t)]) != t {
		return false
	}
	s.i += len(t)
	return true
}

// integer consumes a canonical decimal — no plus sign, no leading zero, no
// "-0" — that fits a signed integer of the given width.
func (s *snapshotScanner) integer(bits uint) (int64, bool) {
	neg := s.lit("-")
	digits := s.i
	var v int64
	for ; s.i < len(s.b) && s.b[s.i]-'0' <= 9 && s.i-digits < 11; s.i++ {
		v = v*10 + int64(s.b[s.i]-'0')
	}
	if n := s.i - digits; n == 0 || n > 10 || s.b[digits] == '0' && (n > 1 || neg) {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, v >= -1<<(bits-1) && v < 1<<(bits-1)
}

// pow10 holds the powers of ten a 15-digit literal can be scaled by, each
// exact in a float64.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15}

// float consumes a number of JSON's grammar and converts it the way
// encoding/json does, strconv.ParseFloat at the target's width; out of range
// is not mine. A float64 literal of at most 15 digits with no exponent — a
// coordinate in centimetres — is an exact integer over an exact power of ten,
// whose quotient is the correctly rounded value ParseFloat's own fast path
// returns.
func (s *snapshotScanner) float(bits int) (float64, bool) {
	start := s.i
	neg := s.lit("-")
	var mant uint64
	digits := s.i
	for ; s.i < len(s.b) && s.b[s.i]-'0' <= 9; s.i++ {
		mant = mant*10 + uint64(s.b[s.i]-'0')
	}
	n, frac := s.i-digits, 0
	if n == 0 || n > 1 && s.b[digits] == '0' {
		return 0, false
	}
	if s.lit(".") {
		digits = s.i
		for ; s.i < len(s.b) && s.b[s.i]-'0' <= 9; s.i++ {
			mant = mant*10 + uint64(s.b[s.i]-'0')
		}
		if frac = s.i - digits; frac == 0 {
			return 0, false
		}
	}
	if s.i < len(s.b) && s.b[s.i]|0x20 == 'e' {
		s.i++
		if !s.lit("+") {
			s.lit("-")
		}
		digits = s.i
		for ; s.i < len(s.b) && s.b[s.i]-'0' <= 9; s.i++ {
		}
		if s.i == digits {
			return 0, false
		}
	} else if bits == 64 && n+frac <= 15 {
		v := float64(mant) / pow10[frac]
		if neg {
			v = -v
		}
		return v, true
	}
	v, err := strconv.ParseFloat(string(s.b[start:s.i]), bits)
	return v, err == nil
}

// point consumes open, a float, a comma or the literal between the
// coordinates, a float, and close.
func (s *snapshotScanner) point(open, mid, close string) (p geo.Point, ok bool) {
	if !s.lit(open) {
		return p, false
	}
	if p.X, ok = s.float(64); !ok || !s.lit(mid) {
		return p, false
	}
	if p.Y, ok = s.float(64); !ok {
		return p, false
	}
	return p, s.lit(close)
}

// address consumes one AddressInfo object.
func (s *snapshotScanner) address() (a model.AddressInfo, ok bool) {
	var id, bld, poi, mode int64
	if !s.lit(snapshotAddressHead) {
		return a, false
	}
	if id, ok = s.integer(32); !ok || !s.lit(`,"Building":`) {
		return a, false
	}
	if bld, ok = s.integer(32); !ok {
		return a, false
	}
	if a.Geocode, ok = s.point(`,"Geocode":{"X":`, `,"Y":`, `},"POI":`); !ok {
		return a, false
	}
	if poi, ok = s.integer(8); !ok || !s.lit(`,"GeocodeMode":`) {
		return a, false
	}
	if mode, ok = s.integer(8); !ok {
		return a, false
	}
	a.ID, a.Building = model.AddressID(id), model.BuildingID(bld)
	a.POI, a.GeocodeMode = geocode.POICategory(poi), geocode.ErrorMode(mode)
	return a, s.lit("}")
}

// keyed consumes an object keyed by address id (or null), calling value to
// consume what follows each `"id":`.
func (s *snapshotScanner) keyed(value func(id model.AddressID) bool) bool {
	if s.lit("null") || s.lit("{}") {
		return true
	}
	if !s.lit("{") {
		return false
	}
	var prev []byte
	for {
		if !s.lit(`"`) {
			return false
		}
		start := s.i
		id, ok := s.integer(32)
		key := s.b[start:s.i]
		if !ok || !s.lit(`":`) || prev != nil && bytes.Compare(prev, key) >= 0 {
			return false
		}
		prev = key
		if !value(model.AddressID(id)) {
			return false
		}
		if !s.lit(",") {
			return s.lit("}")
		}
	}
}

// scanSnapshot feeds l the rows of doc if doc is a canonical version-1
// document. On false, l may hold some of the rows and is to be discarded.
func scanSnapshot(doc []byte, l *snapshotLoad) bool {
	s := snapshotScanner{b: doc}
	if !s.lit(snapshotHead) {
		return false
	}
	// The name is taken as written: no escape to undo, nothing the decoder
	// would replace.
	start := s.i
	for ; s.i < len(doc) && doc[s.i] != '"'; s.i++ {
		if doc[s.i] < ' ' || doc[s.i] == '\\' {
			return false
		}
	}
	name := doc[start:s.i]
	if !utf8.Valid(name) || !s.lit(`","addresses":`) {
		return false
	}
	l.name = string(name)

	if !s.lit("null") && !s.lit("[]") {
		if !s.lit("[") {
			return false
		}
		for {
			a, ok := s.address()
			if !ok {
				return false
			}
			l.address(a)
			if !s.lit(",") {
				break
			}
		}
		if !s.lit("]") {
			return false
		}
	}

	if !s.lit(`,"locations":`) || !s.keyed(func(id model.AddressID) bool {
		p, ok := s.point("[", ",", "]")
		if ok {
			l.location(id, p)
		}
		return ok
	}) {
		return false
	}
	if s.lit(`,"confidences":`) && !s.keyed(func(id model.AddressID) bool {
		c, ok := s.float(32)
		if ok {
			l.confidence(id, float32(c))
		}
		return ok
	}) {
		return false
	}

	end := len(doc)
	if end > 0 && doc[end-1] == '\n' { // json.Encoder ends the document with one
		end--
	}
	if s.lit(`,"matcher":`) {
		// Everything up to the closing brace must be the one raw value,
		// unpadded: the decoder would hand LoadLocMatcher the same bytes.
		raw := doc[s.i:max(s.i, end-1)]
		if len(bytes.TrimSpace(raw)) != len(raw) || !json.Valid(raw) {
			return false
		}
		l.matcher = raw
		s.i = end - 1
	}
	return s.lit("}") && s.i == end
}
