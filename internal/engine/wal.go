package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"dlinfma/internal/deploy"
	"dlinfma/internal/model"
	"dlinfma/internal/obs/trace"
	"dlinfma/internal/wal"
)

// A fix-log record is one acknowledged streamed operation: one fix, one
// explicit stream end, or a re-inference's window cut. Replaying the
// records through the code paths the live operations took reproduces the
// ingest state deterministically (the stream extractor and the pool builder
// are both deterministic functions of their input order, and every window
// cut is either implied by a record or is one). The window log
// (windowlog.go) holds the other kind, one record per operation that cut or
// registered — a batch window's one durable record among them — which lets
// a restart skip the fix log up to the last one.
//
// Byte 0 of a payload is its tag. The streamed kinds are fixed-width and
// little-endian, the cut is the tag alone, 0x07 is a window record and 0x05
// a seal record (seallog.go), the window log's two kinds; the window log
// also skips 0x04, the retired seal record. 0x03 is reserved for the
// waybill line. Any other tag — the JSON records
// ('{') earlier builds wrote among them — and a record of the other log's
// kind refuses replay: it is a log from another build, or not this log,
// and refusing beats silently dropping ingest.
const (
	walTagPoint byte = 0x01 // tag, int32 courier, float64 x, y, t
	walTagEnd   byte = 0x02 // tag, int32 courier
	walTagCut   byte = 0x06 // tag

	walPointSize = 1 + 4 + 3*8
	walEndSize   = 1 + 4
)

// walCutRecord is the payload of Reinfer's window cut.
var walCutRecord = [1]byte{walTagCut}

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

// walEntry is one decoded payload: a streamed op, unless one of the other
// fields says it is a window cut, a window record or a seal record.
type walEntry struct {
	op     deploy.StreamOp
	cut    bool
	window *windowRecord
	seal   *sealRecord
}

// kind names the entry's record kind, for errors.
func (ent *walEntry) kind() string {
	switch {
	case ent.window != nil:
		return "window"
	case ent.seal != nil:
		return "seal"
	case ent.cut:
		return "cut"
	case ent.op.End:
		return "end"
	}
	return "point"
}

// decodeWALRecord reads one payload of either log.
func decodeWALRecord(payload []byte) (ent walEntry, err error) {
	if len(payload) == 0 {
		return ent, errors.New("empty wal record")
	}
	switch tag := payload[0]; tag {
	case walTagPoint:
		if len(payload) != walPointSize {
			return ent, fmt.Errorf("wal point record of %d bytes, want %d", len(payload), walPointSize)
		}
		op := &ent.op
		op.Courier = model.CourierID(binary.LittleEndian.Uint32(payload[1:]))
		op.Pt.P.X = math.Float64frombits(binary.LittleEndian.Uint64(payload[5:]))
		op.Pt.P.Y = math.Float64frombits(binary.LittleEndian.Uint64(payload[13:]))
		op.Pt.T = math.Float64frombits(binary.LittleEndian.Uint64(payload[21:]))
	case walTagEnd:
		if len(payload) != walEndSize {
			return ent, fmt.Errorf("wal end record of %d bytes, want %d", len(payload), walEndSize)
		}
		ent.op.Courier = model.CourierID(binary.LittleEndian.Uint32(payload[1:]))
		ent.op.End = true
	case walTagCut:
		if len(payload) != len(walCutRecord) {
			return ent, fmt.Errorf("wal cut record of %d bytes, want %d", len(payload), len(walCutRecord))
		}
		ent.cut = true
	case walTagWindow:
		ent.window, err = decodeWindowRecord(payload)
	case walTagSeal:
		ent.seal, err = decodeSealRecord(payload)
	case walTagRetiredSeal:
		return ent, errors.New("retired seal record (tag 0x04), which only the window log skips")
	default:
		return ent, fmt.Errorf("unknown wal record tag %#02x", tag)
	}
	return ent, err
}

// AttachWAL makes w the engine's write-ahead log: from now on every accepted
// streamed op and Reinfer's window cut is appended before it mutates state.
// Attach after ReplayWAL so replayed records are not re-appended. A log
// attached this way is never compacted and the caller closes it; it has no
// window log, so a batch window is refused (OpenWAL opens both). The remote
// topology refuses a WAL: durability belongs to each shard process.
func (e *Engine) AttachWAL(w *wal.WAL) {
	if e.remote {
		panic("engine: a remote-sharded engine cannot own a WAL")
	}
	e.ingestMu.Lock()
	e.wal = w
	e.ingestMu.Unlock()
}

// ReplayWAL re-applies every record of the fix log w, from its start,
// through the live ingest paths on top of whatever the engine already holds
// (typically a restored snapshot's serving state), rebuilding the ingest
// state — routing, accumulated trips, candidate pool windows, open courier
// streams — that snapshots deliberately omit. It returns the number of
// records applied, which with the replay's wall time it also publishes as
// gauges. Replayed records do not wait for the windows they cut to be
// clustered, but ReplayWAL returns with every one of them sealed. Replayed
// operations bypass backpressure and are not re-logged.
func (e *Engine) ReplayWAL(ctx context.Context, w *wal.WAL) (int, error) {
	if e.remote {
		return 0, errRemoteStreaming
	}
	ctx, tsp := trace.Start(ctx, "engine.wal_replay")
	defer tsp.End()
	start := time.Now()
	n, err := e.replayFixes(ctx, w)
	e.settle()
	walReplaySeconds.Set(time.Since(start).Seconds())
	walReplayedRecords.Set(float64(n))
	tsp.SetAttr("records", n)
	if err != nil {
		tsp.RecordError(err)
	}
	return n, err
}

// replayFixes is the fix log's replay loop, ReplayWAL's and OpenWAL's: it
// applies w's records from its start and returns how many it applied.
func (e *Engine) replayFixes(ctx context.Context, w *wal.WAL) (int, error) {
	n := 0
	err := w.Replay(func(seq uint64, payload []byte) error {
		ent, err := decodeWALRecord(payload)
		switch {
		case err != nil:
		case ent.window != nil || ent.seal != nil:
			err = fmt.Errorf("%s record in the fix log", ent.kind())
		case ent.cut:
			e.ingestMu.Lock()
			e.sealWindowLocked(ctx)
			e.ingestMu.Unlock()
		default:
			ops := [1]deploy.StreamOp{ent.op}
			e.ingestMu.Lock()
			e.applyStreamOpsLocked(ctx, ops[:])
			e.ingestMu.Unlock()
		}
		if err != nil {
			return fmt.Errorf("engine: wal record %d: %w", seq, err)
		}
		n++
		return nil
	})
	return n, err
}
