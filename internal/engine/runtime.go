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
	// The native bulk read path: several shards scatter/gather, one shard
	// answers from a single frozen-store load.
	deploy.BatchQuerier
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
	// AttachWAL starts logging every accepted ingest operation to w;
	// ReplayWAL re-applies a log on top of the current (typically
	// just-restored) state. Boot order: restore snapshot, ReplayWAL,
	// AttachWAL, serve.
	AttachWAL(w *wal.WAL)
	ReplayWAL(ctx context.Context, w *wal.WAL) (int, error)
	Close()
}

var _ Runtime = (*Engine)(nil)
