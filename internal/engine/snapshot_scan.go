package engine

import (
	"bytes"
	"encoding/json"
	"unicode/utf8"

	"dlinfma/internal/geo"
	"dlinfma/internal/geocode"
	"dlinfma/internal/jsonscan"
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
// with no whitespace, S free of escapes, every i and f a number in
// jsonscan's grammar for its type, object keys canonical address ids other
// than "-0" in strictly ascending byte order (the order encoding/json writes
// a map in, which also excludes a key seen twice), M one JSON value and
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

// snapshotScanner reads the document through the shared number grammar;
// each method consumes what it names and reports false, position undefined,
// at the first byte that is not canonical.
type snapshotScanner struct{ jsonscan.Cursor }

// point consumes open, a float, a comma or the literal between the
// coordinates, a float, and close.
func (s *snapshotScanner) point(open, mid, close string) (p geo.Point, ok bool) {
	if !s.Lit(open) {
		return p, false
	}
	if p.X, ok = s.Float(64); !ok || !s.Lit(mid) {
		return p, false
	}
	if p.Y, ok = s.Float(64); !ok {
		return p, false
	}
	return p, s.Lit(close)
}

// address consumes one AddressInfo object.
func (s *snapshotScanner) address() (a model.AddressInfo, ok bool) {
	var id, bld, poi, mode int64
	if !s.Lit(snapshotAddressHead) {
		return a, false
	}
	if id, ok = s.Int(32); !ok || !s.Lit(`,"Building":`) {
		return a, false
	}
	if bld, ok = s.Int(32); !ok {
		return a, false
	}
	if a.Geocode, ok = s.point(`,"Geocode":{"X":`, `,"Y":`, `},"POI":`); !ok {
		return a, false
	}
	if poi, ok = s.Int(8); !ok || !s.Lit(`,"GeocodeMode":`) {
		return a, false
	}
	if mode, ok = s.Int(8); !ok {
		return a, false
	}
	a.ID, a.Building = model.AddressID(id), model.BuildingID(bld)
	a.POI, a.GeocodeMode = geocode.POICategory(poi), geocode.ErrorMode(mode)
	return a, s.Lit("}")
}

// keyed consumes an object keyed by address id (or null), calling value to
// consume what follows each `"id":`.
func (s *snapshotScanner) keyed(value func(id model.AddressID) bool) bool {
	if s.Lit("null") || s.Lit("{}") {
		return true
	}
	if !s.Lit("{") {
		return false
	}
	var prev []byte
	for {
		if !s.Lit(`"`) {
			return false
		}
		start := s.I
		id, ok := s.Int(32)
		key := s.B[start:s.I]
		// "-0" and "0" are two keys to encoding/json and one address here;
		// the byte-order check cannot see that.
		if !ok || string(key) == "-0" || !s.Lit(`":`) || prev != nil && bytes.Compare(prev, key) >= 0 {
			return false
		}
		prev = key
		if !value(model.AddressID(id)) {
			return false
		}
		if !s.Lit(",") {
			return s.Lit("}")
		}
	}
}

// scanSnapshot feeds l the rows of doc if doc is a canonical version-1
// document. On false, l may hold some of the rows and is to be discarded.
func scanSnapshot(doc []byte, l *snapshotLoad) bool {
	s := snapshotScanner{jsonscan.Cursor{B: doc}}
	if !s.Lit(snapshotHead) {
		return false
	}
	// The name is taken as written: no escape to undo, nothing the decoder
	// would replace.
	start := s.I
	for ; s.I < len(doc) && doc[s.I] != '"'; s.I++ {
		if doc[s.I] < ' ' || doc[s.I] == '\\' {
			return false
		}
	}
	name := doc[start:s.I]
	if !utf8.Valid(name) || !s.Lit(`","addresses":`) {
		return false
	}
	l.name = string(name)

	if !s.Lit("null") && !s.Lit("[]") {
		if !s.Lit("[") {
			return false
		}
		for {
			a, ok := s.address()
			if !ok {
				return false
			}
			l.address(a)
			if !s.Lit(",") {
				break
			}
		}
		if !s.Lit("]") {
			return false
		}
	}

	if !s.Lit(`,"locations":`) || !s.keyed(func(id model.AddressID) bool {
		p, ok := s.point("[", ",", "]")
		if ok {
			l.location(id, p)
		}
		return ok
	}) {
		return false
	}
	if s.Lit(`,"confidences":`) && !s.keyed(func(id model.AddressID) bool {
		c, ok := s.Float(32)
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
	if s.Lit(`,"matcher":`) {
		// Everything up to the closing brace must be the one raw value,
		// unpadded: the decoder would hand LoadLocMatcher the same bytes.
		raw := doc[s.I:max(s.I, end-1)]
		if len(bytes.TrimSpace(raw)) != len(raw) || !json.Valid(raw) {
			return false
		}
		l.matcherJSON = raw
		s.I = end - 1
	}
	return s.Lit("}") && s.I == end
}
