package deploy

import (
	"strconv"

	"dlinfma/internal/deploy/api"
)

// The line codec of POST /v1/trajectories:stream. json.Unmarshal into
// api.StreamPoint is the definition of a stream line; this file is a
// reflection-free reader of the forms producers actually write, pinned to
// that definition by FuzzStreamLineDecode.

const (
	streamLineHead = `{"courier":`
	streamEndTail  = `,"end":true}`
)

// streamCoordKeys are the fix fields in json.Marshal's order.
var streamCoordKeys = [...]string{`,"x":`, `,"y":`, `,"t":`}

// scanStreamLine decodes the canonical forms of a stream line, none with any
// whitespace: a fix {"courier":N,"x":F,"y":F,"t":F}, the short end marker
// {"courier":N,"end":true}, and a fix followed by ,"end":true — which covers
// what json.Marshal writes for an api.StreamPoint with End set. ok is false
// for every other line, valid or not; the caller then hands it to
// json.Unmarshal, so which lines are accepted and what a rejected one answers
// stays encoding/json's decision.
func scanStreamLine(line []byte) (p api.StreamPoint, ok bool) {
	if len(line) < len(streamLineHead) || string(line[:len(streamLineHead)]) != streamLineHead {
		return p, false
	}
	i := len(streamLineHead)
	neg := i < len(line) && line[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for ; i < len(line) && line[i]-'0' <= 9; i++ {
		v = v*10 + int64(line[i]-'0')
	}
	if n := i - start; n == 0 || n > maxKeyDigits || n > 1 && line[start] == '0' {
		return p, false
	}
	if neg {
		v = -v
	}
	p.Courier = v
	if string(line[i:]) == streamEndTail {
		p.End = true
		return p, true
	}
	for k, dst := range [...]*float64{&p.X, &p.Y, &p.T} {
		key := streamCoordKeys[k]
		if len(line)-i < len(key) || string(line[i:i+len(key)]) != key {
			return p, false
		}
		i += len(key)
		n, ok := scanJSONFloat(line[i:], dst)
		if !ok {
			return p, false
		}
		i += n
	}
	switch string(line[i:]) {
	case "}":
		return p, true
	case streamEndTail:
		p.End = true
		return p, true
	}
	return p, false
}

// pow10 holds the powers of ten a 15-digit literal can be scaled by, each
// exact in a float64.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15}

// scanJSONFloat reads the JSON number literal at the head of b into *f as
// encoding/json does (strconv.ParseFloat of the literal) and returns the
// literal's length. ok is false when b does not start with a number by
// JSON's grammar or the number is out of float64's range. A literal of at
// most 15 digits with no exponent is an exact integer over an exact power of
// ten, whose quotient is the correctly rounded value ParseFloat returns;
// everything else goes to ParseFloat.
func scanJSONFloat(b []byte, f *float64) (n int, ok bool) {
	i := 0
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	intStart := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	if nd := i - intStart; nd == 0 || nd > 1 && b[intStart] == '0' {
		return 0, false
	}
	digits, frac := i-intStart, 0
	if i < len(b) && b[i] == '.' {
		i++
		fracStart := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		if frac = i - fracStart; frac == 0 {
			return 0, false
		}
		digits += frac
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		expStart := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
		}
		if i == expStart {
			return 0, false
		}
		digits = 99 // not the exact form
	}
	if digits <= 15 {
		v := float64(mant) / pow10[frac]
		if neg {
			v = -v
		}
		*f = v
		return i, true
	}
	v, err := strconv.ParseFloat(string(b[:i]), 64)
	*f = v
	return i, err == nil
}
