package deploy

import (
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/jsonscan"
)

// The line codec of POST /v1/trajectories:stream. json.Unmarshal into
// api.StreamPoint is the definition of a stream line; this file is a
// reflection-free reader of the forms producers actually write, pinned to
// that definition by FuzzStreamLineDecode.

// streamEndTail ends every line that closes the courier's trip.
const streamEndTail = `,"end":true}`

// scanStreamLine decodes the canonical forms of a stream line, none with any
// whitespace and every number in jsonscan's grammar: a fix
// {"courier":N,"x":F,"y":F,"t":F}, the short end marker
// {"courier":N,"end":true}, and a fix followed by ,"end":true — which covers
// what json.Marshal writes for an api.StreamPoint with End set. ok is false
// for every other line, valid or not; the caller then hands it to
// json.Unmarshal, so which lines are accepted and what a rejected one answers
// stays encoding/json's decision.
func scanStreamLine(line []byte) (p api.StreamPoint, ok bool) {
	c := jsonscan.Cursor{B: line}
	if !c.Lit(`{"courier":`) {
		return p, false
	}
	if p.Courier, ok = c.Int(64); !ok {
		return p, false
	}
	if p.End = c.Lit(streamEndTail); p.End {
		return p, c.I == len(line)
	}
	if !c.Lit(`,"x":`) {
		return p, false
	}
	if p.X, ok = c.Float(64); !ok || !c.Lit(`,"y":`) {
		return p, false
	}
	if p.Y, ok = c.Float(64); !ok || !c.Lit(`,"t":`) {
		return p, false
	}
	if p.T, ok = c.Float(64); !ok {
		return p, false
	}
	switch {
	case c.Lit("}"):
	case c.Lit(streamEndTail):
		p.End = true
	default:
		return p, false
	}
	return p, c.I == len(line)
}
