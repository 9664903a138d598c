// Package jsonscan is the number grammar of the tree's strict JSON readers:
// the batch lookup body (deploy/batch_codec.go), the stream line
// (deploy/stream_codec.go) and the version-1 snapshot document
// (engine/snapshot_scan.go). Each of them reads one canonical byte sequence
// without reflection and answers "not mine" for anything else, so that
// encoding/json — the definition of every format — decides what a declined
// input means. What they share is the question this package answers once:
// which literal would encoding/json decode to which value. AppendFloat asks
// it backwards for the one writer, the read routes' response codec: which
// literal encoding/json would print for a value.
//
// FuzzJSONNumber holds Int and Float to json.Unmarshal, FuzzAppendFloat holds
// AppendFloat to strconv.
package jsonscan

import (
	"math"
	"strconv"
)

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

// AppendFloat appends the shortest decimal that reads back as v — what
// strconv.AppendFloat(b, v, 'f', -1, 64) appends, and so what encoding/json
// prints in this range — for a v of 1 ≤ |v| < 1e15 that is the float64 of a
// decimal of at most 15 significant digits: a coordinate in centimetres, a
// GPS fix as a producer prints it. For every other value it reports false
// and leaves b untouched; the caller then formats it the general way.
//
// It is Float's exact path run backwards. With n integer digits and
// k = 15 − n, m = round(|v|·10^k) is the only 15-digit candidate, and it is
// v's digits exactly when m / 10^k == |v|: m and 10^k are exact in a float64,
// so the quotient is the correctly rounded value of the decimal m·10^−k, and
// no other decimal of at most 15 significant digits rounds to the same
// float64 (DBL_DIG is 15), so strconv's shortest digits are m's with the
// trailing zeros dropped. The comparison is the proof; a value it rejects is
// declined. Before it, |v|·10^k − m > 0.25 declines most full-precision
// values without the division: for an accepted value that residual is under
// 0.18 (|m|·2^−53 from reading the decimal, plus half an ulp of a product
// below 2^50).
func AppendFloat(b []byte, v float64) ([]byte, bool) {
	a := math.Abs(v)
	if !(a >= 1 && a < 1e15) { // NaN fails both
		return b, false
	}
	// The integer digits n from the binary exponent e: a ∈ [2^e, 2^(e+1)), so
	// n is ⌊e·log10 2⌋ + 1 or one more, and one comparison tells which. A loop
	// over the powers of ten mispredicts when magnitudes vary, and that was
	// most of a declined value's cost.
	n := int(math.Float64bits(a)>>52-1023)*1233>>12 + 1
	if a >= pow10[n] {
		n++
	}
	k := 15 - n
	r := a * pow10[k]
	m := math.RoundToEven(r)
	if d := r - m; d > 0.25 || d < -0.25 || m/pow10[k] != a {
		return b, false
	}
	// Rounding is monotone and integers below 1e15 are exact, so m·10^−k lies
	// in [⌊a⌋, ⌊a⌋+1) — below ⌊a⌋ it would round up across a gap of 10^−k,
	// over twice a's half ulp — and the fraction's k digits are m − ⌊a⌋·10^k.
	ip := uint64(a)
	frac := uint64(m) - ip*uint64(pow10[k])
	var buf [24]byte // sign, 15 digits and a point
	i := len(buf)
	if frac != 0 {
		// At most 13 trailing zeros, dropped 8, 4, 2 and 1 at a time (a
		// digit a time was the printer's largest cost). Every divisor is a
		// constant, so every division is a multiplication.
		if frac%1e8 == 0 {
			frac /= 1e8
			k -= 8
		}
		if frac%1e4 == 0 {
			frac /= 1e4
			k -= 4
		}
		if frac%100 == 0 {
			frac /= 100
			k -= 2
		}
		if frac%10 == 0 {
			frac /= 10
			k--
		}
		for ; k >= 2; k -= 2 {
			i -= 2
			d := frac % 100 * 2
			buf[i], buf[i+1] = digitPairs[d], digitPairs[d+1]
			frac /= 100
		}
		if k == 1 {
			i--
			buf[i] = byte('0' + frac)
		}
		i--
		buf[i] = '.'
	}
	for ip >= 100 {
		i -= 2
		d := ip % 100 * 2
		buf[i], buf[i+1] = digitPairs[d], digitPairs[d+1]
		ip /= 100
	}
	if ip >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[ip*2], digitPairs[ip*2+1]
	} else {
		i--
		buf[i] = byte('0' + ip)
	}
	if v < 0 {
		i--
		buf[i] = '-'
	}
	return append(b, buf[i:]...), true
}

// digitPairs holds "00" through "99": two digits per division by 100.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"
