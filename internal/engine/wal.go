package engine

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"dlinfma/internal/deploy"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/obs/trace"
	"dlinfma/internal/wal"
)

// A WAL record is one acknowledged ingest operation: a batch window, one
// streamed fix, one explicit stream end, or a re-inference's window cut.
// Replaying the records through the code paths the live operations took
// reproduces the ingest state deterministically (the stream extractor and
// the pool builder are both deterministic functions of their input order,
// and every window cut is either implied by a record or is one).
//
// Byte 0 of a payload is its tag. The streamed kinds are fixed-width and
// little-endian, the cut is the tag alone; '{' is a JSON walRecord, the
// batch window. 0x03–0x05 are reserved for waybill, address and truth
// records. Any other tag, and any JSON kind but the window, refuses replay:
// it is a log from another build, and refusing beats silently dropping
// ingest.
const (
	walTagPoint byte = 0x01 // tag, int32 courier, float64 x, y, t
	walTagEnd   byte = 0x02 // tag, int32 courier
	walTagCut   byte = 0x06 // tag
	walTagJSON  byte = '{'

	walPointSize = 1 + 4 + 3*8
	walEndSize   = 1 + 4
)

// walCutRecord is the payload of Reinfer's window cut.
var walCutRecord = [1]byte{walTagCut}

// walKindIngest is the kind of a batch-window record.
const walKindIngest = "ingest"

// walRecord is the JSON payload of a batch-window WAL entry. Integer map keys
// round-trip through JSON's stringified-key encoding exactly like the
// snapshot format.
type walRecord struct {
	Kind  string                        `json:"k"`
	Trips []model.Trip                  `json:"trips,omitempty"`
	Addrs []model.AddressInfo           `json:"addrs,omitempty"`
	Truth map[model.AddressID]geo.Point `json:"truth,omitempty"`
}

// encodeWALIngest marshals a batch window; every field is a plain value
// type, so a marshal error is a programming bug, not a runtime condition.
func encodeWALIngest(trips []model.Trip, addrs []model.AddressInfo, truth map[model.AddressID]geo.Point) []byte {
	b, err := json.Marshal(&walRecord{Kind: walKindIngest, Trips: trips, Addrs: addrs, Truth: truth})
	if err != nil {
		panic(fmt.Sprintf("engine: marshal wal record: %v", err))
	}
	return b
}

// appendWALOp appends the binary record of one streamed op.
func appendWALOp(b []byte, op *deploy.StreamOp) []byte {
	if op.End {
		b = append(b, walTagEnd)
		return binary.LittleEndian.AppendUint32(b, uint32(op.Courier))
	}
	b = append(b, walTagPoint)
	b = binary.LittleEndian.AppendUint32(b, uint32(op.Courier))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(op.Pt.P.X))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(op.Pt.P.Y))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(op.Pt.T))
}

// decodeWALRecord reads one payload: a binary streamed op, a window cut
// (cut true), or — window non-nil — a batch window.
func decodeWALRecord(payload []byte) (op deploy.StreamOp, window *walRecord, cut bool, err error) {
	if len(payload) == 0 {
		return op, nil, false, errors.New("empty wal record")
	}
	switch tag := payload[0]; tag {
	case walTagPoint:
		if len(payload) != walPointSize {
			return op, nil, false, fmt.Errorf("wal point record of %d bytes, want %d", len(payload), walPointSize)
		}
		op.Courier = model.CourierID(binary.LittleEndian.Uint32(payload[1:]))
		op.Pt.P.X = math.Float64frombits(binary.LittleEndian.Uint64(payload[5:]))
		op.Pt.P.Y = math.Float64frombits(binary.LittleEndian.Uint64(payload[13:]))
		op.Pt.T = math.Float64frombits(binary.LittleEndian.Uint64(payload[21:]))
		return op, nil, false, nil
	case walTagEnd:
		if len(payload) != walEndSize {
			return op, nil, false, fmt.Errorf("wal end record of %d bytes, want %d", len(payload), walEndSize)
		}
		op.Courier = model.CourierID(binary.LittleEndian.Uint32(payload[1:]))
		op.End = true
		return op, nil, false, nil
	case walTagCut:
		if len(payload) != len(walCutRecord) {
			return op, nil, false, fmt.Errorf("wal cut record of %d bytes, want %d", len(payload), len(walCutRecord))
		}
		return op, nil, true, nil
	case walTagJSON:
		rec := new(walRecord)
		if err := json.Unmarshal(payload, rec); err != nil {
			return op, nil, false, err
		}
		if rec.Kind != walKindIngest {
			return op, nil, false, fmt.Errorf("unknown wal record kind %q", rec.Kind)
		}
		return op, rec, false, nil
	default:
		return op, nil, false, fmt.Errorf("unknown wal record tag %#02x", tag)
	}
}

// AttachWAL makes w the engine's write-ahead log: from now on every accepted
// ingest operation is appended (points, stream ends and Reinfer's window
// cuts before they mutate state, batch windows after they apply so a
// rejected or cancelled window never pollutes the log). Attach after
// ReplayWAL so replayed records are not re-appended. The remote topology
// refuses a WAL: durability belongs to each shard process.
func (e *Engine) AttachWAL(w *wal.WAL) {
	if e.remote {
		panic("engine: a remote-sharded engine cannot own a WAL")
	}
	e.ingestMu.Lock()
	e.wal = w
	e.ingestMu.Unlock()
}

// ReplayWAL re-applies every record of w through the live ingest paths on
// top of whatever the engine already holds (typically a restored snapshot's
// serving state), rebuilding the ingest state — routing, accumulated trips,
// candidate pool windows, open courier streams — that snapshots deliberately
// omit. It returns the number of records applied, which with the replay's
// wall time it also publishes as gauges. Replayed records do not wait for
// the windows they cut to be clustered, but ReplayWAL returns with every
// one of them sealed. Replayed operations bypass backpressure and are not
// re-logged.
func (e *Engine) ReplayWAL(ctx context.Context, w *wal.WAL) (int, error) {
	if e.remote {
		return 0, errRemoteStreaming
	}
	ctx, tsp := trace.Start(ctx, "engine.wal_replay")
	defer tsp.End()
	start := time.Now()
	n := 0
	err := w.Replay(func(seq uint64, payload []byte) error {
		op, window, cut, err := decodeWALRecord(payload)
		switch {
		case err != nil:
		case window != nil:
			err = e.ingest(ctx, window.Trips, window.Addrs, window.Truth, false)
		case cut:
			e.ingestMu.Lock()
			e.sealWindowLocked(ctx)
			e.ingestMu.Unlock()
		default:
			ops := [1]deploy.StreamOp{op}
			e.ingestMu.Lock()
			e.applyStreamOpsLocked(ctx, ops[:], seq)
			e.ingestMu.Unlock()
		}
		if err != nil {
			return fmt.Errorf("engine: wal record %d: %w", seq, err)
		}
		n++
		return nil
	})
	e.settle()
	walReplaySeconds.Set(time.Since(start).Seconds())
	walReplayedRecords.Set(float64(n))
	tsp.SetAttr("records", n)
	if err != nil {
		tsp.RecordError(err)
	}
	return n, err
}

// walBoundaryLocked computes the highest WAL sequence a re-inference
// starting now will cover: everything appended so far, held back below the
// first point of any still-open courier stream (those points are not in any
// shard's dataset and must survive a crash). 0 means nothing may be
// truncated. Callers hold ingestMu so no append races the reading.
func (e *Engine) walBoundaryLocked() uint64 {
	if e.wal == nil {
		return 0
	}
	boundary := e.wal.LastSeq()
	min, ok := e.ss.minOpenSeq()
	if !ok {
		return 0
	}
	if min > 0 && min-1 < boundary {
		boundary = min - 1
	}
	return boundary
}

// maybeTruncateWAL drops WAL segments wholly covered by the last fully
// successful re-inference, once its serving state reached durable storage.
// Best effort: a failed truncation only delays space reclamation.
func (e *Engine) maybeTruncateWAL() {
	e.ingestMu.Lock()
	w := e.wal
	e.ingestMu.Unlock()
	e.mu.RLock()
	seq := e.reinferSeq
	e.mu.RUnlock()
	if w != nil && seq > 0 {
		_ = w.TruncateThrough(seq)
	}
}
