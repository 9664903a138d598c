package engine

import (
	"context"
	"encoding/json"
	"fmt"

	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/obs/trace"
	"dlinfma/internal/traj"
	"dlinfma/internal/wal"
)

// WAL record kinds. A record is one acknowledged ingest operation: a batch
// window, one streamed point, or one explicit stream end. Replaying the
// records through the same code paths the live operations took reproduces
// the ingest state deterministically (the stream extractor and the pool
// builder are both deterministic functions of their input order).
const (
	walKindIngest = "ingest"
	walKindPoint  = "pt"
	walKindEnd    = "end"
)

// walRecord is the JSON payload of one WAL entry. Batch fields and point
// fields are disjoint by Kind; integer map keys round-trip through JSON's
// stringified-key encoding exactly like the snapshot format.
type walRecord struct {
	Kind    string                        `json:"k"`
	Trips   []model.Trip                  `json:"trips,omitempty"`
	Addrs   []model.AddressInfo           `json:"addrs,omitempty"`
	Truth   map[model.AddressID]geo.Point `json:"truth,omitempty"`
	Courier model.CourierID               `json:"c,omitempty"`
	X       float64                       `json:"x,omitempty"`
	Y       float64                       `json:"y,omitempty"`
	T       float64                       `json:"t,omitempty"`
}

func encodeWALIngest(trips []model.Trip, addrs []model.AddressInfo, truth map[model.AddressID]geo.Point) []byte {
	return mustEncodeWAL(&walRecord{Kind: walKindIngest, Trips: trips, Addrs: addrs, Truth: truth})
}

func encodeWALPoint(courier model.CourierID, pt traj.GPSPoint) []byte {
	return mustEncodeWAL(&walRecord{Kind: walKindPoint, Courier: courier, X: pt.P.X, Y: pt.P.Y, T: pt.T})
}

func encodeWALEnd(courier model.CourierID) []byte {
	return mustEncodeWAL(&walRecord{Kind: walKindEnd, Courier: courier})
}

// mustEncodeWAL marshals a record; every field is a plain value type, so a
// marshal error is a programming bug, not a runtime condition.
func mustEncodeWAL(rec *walRecord) []byte {
	b, err := json.Marshal(rec)
	if err != nil {
		panic(fmt.Sprintf("engine: marshal wal record: %v", err))
	}
	return b
}

// AttachWAL makes w the engine's write-ahead log: from now on every accepted
// ingest operation is appended (points and stream ends before they mutate
// state, batch windows after they apply so a rejected or cancelled window
// never pollutes the log). Attach after ReplayWAL so replayed records are
// not re-appended. The remote topology refuses a WAL: durability belongs to
// each shard process.
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
// omit. It returns the number of records applied. Replayed operations bypass
// backpressure and are not re-logged.
func (e *Engine) ReplayWAL(ctx context.Context, w *wal.WAL) (int, error) {
	if e.remote {
		return 0, errRemoteStreaming
	}
	ctx, tsp := trace.Start(ctx, "engine.wal_replay")
	defer tsp.End()
	n := 0
	err := w.Replay(func(seq uint64, payload []byte) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("engine: wal record %d: %w", seq, err)
		}
		if err := e.applyWALRecord(ctx, seq, &rec); err != nil {
			return fmt.Errorf("engine: wal record %d: %w", seq, err)
		}
		n++
		return nil
	})
	tsp.SetAttr("records", n)
	if err != nil {
		tsp.RecordError(err)
	}
	return n, err
}

func (e *Engine) applyWALRecord(ctx context.Context, seq uint64, rec *walRecord) error {
	switch rec.Kind {
	case walKindIngest:
		return e.ingest(ctx, rec.Trips, rec.Addrs, rec.Truth, false)
	case walKindPoint:
		e.ingestMu.Lock()
		defer e.ingestMu.Unlock()
		return e.ingestPointLocked(ctx, rec.Courier, traj.GPSPoint{P: geo.Point{X: rec.X, Y: rec.Y}, T: rec.T}, seq, false)
	case walKindEnd:
		e.ingestMu.Lock()
		defer e.ingestMu.Unlock()
		return e.closeStreamLocked(ctx, rec.Courier, false)
	default:
		// A log written by a newer build; refusing beats silently dropping
		// ingest.
		return fmt.Errorf("unknown wal record kind %q", rec.Kind)
	}
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
