package deploy

import (
	"context"

	"dlinfma/internal/model"
	"dlinfma/internal/traj"
)

// StreamOp is one decoded line of a streaming session: one courier fix, or
// (End set, Pt ignored) the explicit end of that courier's open trip.
type StreamOp struct {
	Courier model.CourierID
	Pt      traj.GPSPoint
	End     bool
}

// StreamBurstIngestor is the optional burst form of a StreamIngestor.
// IngestBurst applies ops in order exactly as one IngestPoint or CloseStream
// call per op would, and returns how many were applied: len(ops) and nil, or
// the index of the op that failed and its error (ErrBackpressure included),
// with nothing at or past that index applied. The engine does not keep ops.
// internal/engine implements it with one lock hold and one log write per
// burst; engines without it are served by the per-op loop of IngestBurst.
type StreamBurstIngestor interface {
	IngestBurst(ctx context.Context, ops []StreamOp) (applied int, err error)
}

// IngestBurst applies ops to si in order, through its native burst path when
// it has one and one IngestPoint or CloseStream call per op otherwise.
func IngestBurst(ctx context.Context, si StreamIngestor, ops []StreamOp) (applied int, err error) {
	if bi, ok := si.(StreamBurstIngestor); ok {
		return bi.IngestBurst(ctx, ops)
	}
	for i := range ops {
		if op := &ops[i]; op.End {
			err = si.CloseStream(ctx, op.Courier)
		} else {
			err = si.IngestPoint(ctx, op.Courier, op.Pt)
		}
		if err != nil {
			return i, err
		}
	}
	return len(ops), nil
}
