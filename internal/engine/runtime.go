package engine

import (
	"context"
	"io"

	"dlinfma/internal/deploy"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/wal"
)

// Runtime is the full lifecycle surface of *Engine as an interface:
// everything deploy.Engine serves over HTTP plus the batch / persistence
// operations cmd/dlinfma drives directly. It exists so callers can decorate
// an engine (the benchmark's tracing wrapper does); the shard count is
// picked at startup (-shards) and everything after is the same code.
type Runtime interface {
	deploy.Engine
	// Query is QueryCtx without a request: the lock-free single-key read.
	Query(addr model.AddressID) (geo.Point, deploy.Source)
	// Point-by-point trajectory streaming with WAL-backed durability and
	// backpressure.
	deploy.StreamIngestor

	SetName(name string)
	IngestDataset(ctx context.Context, ds *model.Dataset) error
	Reinfer(ctx context.Context) error
	InferredLocations() map[model.AddressID]geo.Point
	RestoreSnapshot(r io.Reader) error
	SaveSnapshotFile(path string) error
	LoadSnapshotFile(path string) error
	// OpenWAL opens, replays and attaches the fix log and the window log
	// in a directory, on top of the current (typically just-restored)
	// state; boot order: restore snapshot, OpenWAL, serve. AttachWAL and
	// ReplayWAL are the same for one fix log the caller owns, uncompacted.
	OpenWAL(ctx context.Context, dir string, opts wal.Options) (WALReplay, error)
	AttachWAL(w *wal.WAL)
	ReplayWAL(ctx context.Context, w *wal.WAL) (int, error)
	Close()
}

var _ Runtime = (*Engine)(nil)
