package deploy

import (
	"encoding/json"
	"math"
	"strconv"

	"dlinfma/internal/deploy/api"
	"dlinfma/internal/geo"
	"dlinfma/internal/jsonscan"
)

// The wire codec of the two read routes. encoding/json over the api structs
// is the definition of the format; this file is a reflection-free writer and
// reader of exactly those bytes, pinned to it by the byte-identity table test
// and the two fuzz targets in batch_codec_test.go.

// scanBatchRequest decodes the canonical batch body — what json.Marshal
// writes for api.BatchLocationsRequest: {"addrs":[<int>,...]} with no
// whitespace, every key a jsonscan canonical decimal — appending the keys to
// keys[:0]. ok is false for every other body, valid or not; the caller then
// hands it to json.Unmarshal, so which bodies are accepted and what a
// rejected one answers stays encoding/json's decision.
func scanBatchRequest(body []byte, keys []int64) (_ []int64, ok bool) {
	keys = keys[:0]
	c := jsonscan.Cursor{B: body}
	if !c.Lit(`{"addrs":[`) {
		return keys, false
	}
	if !c.Lit("]") { // the empty list; everything else has a literal per comma
		for {
			k, ok := c.Int(64)
			if !ok {
				return keys, false
			}
			keys = append(keys, k)
			if !c.Lit(",") {
				break
			}
		}
		if !c.Lit("]") {
			return keys, false
		}
	}
	return keys, c.Lit("}") && c.I == len(body)
}

// batchMissTail closes the result of an unknown key. Every miss carries the
// same code and message (the offending key is already the result's addr), so
// the shared item error is marshalled once.
var batchMissTail = func() string {
	b, err := json.Marshal(&api.Error{Code: api.CodeNotFound, Message: "unknown address"})
	if err != nil {
		panic(err)
	}
	return `,"error":` + string(b) + `}`
}()

// appendBatchResponse appends what json.NewEncoder(w).Encode writes for the
// api.BatchLocationsResponse answering keys: one result per key in request
// order, a location where answers[i] hit and the shared not_found item error
// where it missed, then the found and missing counts and a newline.
func appendBatchResponse(b []byte, keys []int64, answers []BatchAnswer) ([]byte, error) {
	b = append(b, `{"results":[`...)
	found := 0
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"addr":`...)
		key := len(b)
		b = strconv.AppendInt(b, k, 10)
		a := answers[i]
		if a.Src == SourceNone {
			b = append(b, batchMissTail...)
			continue
		}
		// The location repeats the key: copy its bytes rather than format it
		// twice.
		keyEnd := len(b)
		b = append(b, `,"location":{"addr":`...)
		b = append(b, b[key:keyEnd]...)
		var err error
		if b, err = appendLocationRest(b, a.Loc, a.Src); err != nil {
			return b, err
		}
		b = append(b, '}')
		found++
	}
	b = append(b, `],"found":`...)
	b = strconv.AppendInt(b, int64(found), 10)
	b = append(b, `,"missing":`...)
	b = strconv.AppendInt(b, int64(len(keys)-found), 10)
	return append(b, "}\n"...), nil
}

// appendLocation appends the api.Location object of one answered key.
func appendLocation(b []byte, addr int64, loc geo.Point, src Source) ([]byte, error) {
	b = append(b, `{"addr":`...)
	b = strconv.AppendInt(b, addr, 10)
	return appendLocationRest(b, loc, src)
}

// appendLocationRest appends what follows the addr of an api.Location and
// closes it. The source labels are plain ASCII, so they need no escaping.
func appendLocationRest(b []byte, loc geo.Point, src Source) ([]byte, error) {
	b = append(b, `,"x":`...)
	b, err := appendFloat(b, loc.X)
	if err != nil {
		return b, err
	}
	b = append(b, `,"y":`...)
	if b, err = appendFloat(b, loc.Y); err != nil {
		return b, err
	}
	b = append(b, `,"source":"`...)
	b = append(b, src.String()...)
	return append(b, `"}`...), nil
}

// appendFloat follows encoding/json's float64 rules: the shortest decimal
// that round-trips, in exponent form below 1e-6 and from 1e21 with a
// two-digit negative exponent trimmed to one ("e-07" -> "e-7"), and the same
// UnsupportedValueError for NaN and the infinities, which JSON cannot hold.
// It is the one float printer of both read routes. A value from 1 up to
// 1e15 of at most 15 significant digits — a centimetre coordinate, a
// geocoder's output — takes jsonscan.AppendFloat, which needs no
// shortest-digit search; what that declines goes to strconv.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if out, ok := jsonscan.AppendFloat(b, f); ok {
		return out, nil
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b, nil
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64), nil
}
