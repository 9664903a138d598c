// Package jsonscan is the number grammar of the tree's strict JSON readers:
// the batch lookup body (deploy/batch_codec.go), the stream line
// (deploy/stream_codec.go) and the version-1 snapshot document
// (engine/snapshot_scan.go). Each of them reads one canonical byte sequence
// without reflection and answers "not mine" for anything else, so that
// encoding/json — the definition of every format — decides what a declined
// input means. What they share is the question this package answers once:
// which literal would encoding/json decode to which value.
//
// FuzzJSONNumber holds Int and Float to json.Unmarshal.
package jsonscan

import "strconv"

// Cursor is a position I in B. Each method consumes what it names and
// reports false — the position then undefined — at the first byte that is not
// the canonical form of it.
type Cursor struct {
	B []byte
	I int
}

// Lit consumes the literal s.
func (c *Cursor) Lit(s string) bool {
	if len(c.B)-c.I < len(s) {
		return false
	}
	// Inlined, len(s) is a constant: a one-byte literal — every separator —
	// is one compare, where the string comparison is a call to memequal.
	if len(s) == 1 {
		if c.B[c.I] != s[0] {
			return false
		}
	} else if string(c.B[c.I:c.I+len(s)]) != s {
		return false
	}
	c.I += len(s)
	return true
}

// maxIntDigits keeps Int's accumulation inside int64 without an overflow
// check; a longer literal is not mine.
const maxIntDigits = 18

// Int consumes a canonical decimal — no plus sign, no leading zero, at most
// maxIntDigits digits — that fits a signed integer of the given width, as
// encoding/json decodes it into one. "-0" is 0, as it is there.
func (c *Cursor) Int(bits uint) (v int64, ok bool) {
	// Small enough to inline; the scan runs on the slice and index as values,
	// since through c every byte would be a load and a store of c.I (the
	// batch body's scan measured 1.7x slower so).
	v, c.I, ok = scanInt(c.B, c.I, bits)
	return v, ok
}

func scanInt(b []byte, i int, bits uint) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + int64(b[i]-'0')
	}
	if n := i - start; n == 0 || n > maxIntDigits || n > 1 && b[start] == '0' {
		return 0, i, false
	}
	if neg {
		v = -v
	}
	// v fits in bits when everything above its sign bit is a copy of it.
	return v, i, v>>(bits-1) == v>>63
}

// pow10 holds the powers of ten a 15-digit literal can be scaled by, each
// exact in a float64.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15}

// Float consumes a number of JSON's grammar and converts it the way
// encoding/json does, strconv.ParseFloat at the target's width; out of range
// is not mine. A float64 literal of at most 15 digits with no exponent — a
// coordinate in centimetres, a GPS fix as a producer prints it — is an exact
// integer over an exact power of ten, whose quotient is the correctly rounded
// value ParseFloat's own fast path returns.
func (c *Cursor) Float(bits int) (v float64, ok bool) {
	v, c.I, ok = scanFloat(c.B, c.I, bits)
	return v, ok
}

func scanFloat(b []byte, i int, bits int) (float64, int, bool) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	digits := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	n, frac := i-digits, 0
	if n == 0 || n > 1 && b[digits] == '0' {
		return 0, i, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		digits = i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		if frac = i - digits; frac == 0 {
			return 0, i, false
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		digits = i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
		}
		if i == digits {
			return 0, i, false
		}
	} else if bits == 64 && n+frac <= 15 {
		v := float64(mant) / pow10[frac]
		if neg {
			v = -v
		}
		return v, i, true
	}
	v, err := strconv.ParseFloat(string(b[start:i]), bits)
	return v, i, err == nil
}
