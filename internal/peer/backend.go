// Package peer is the process-cluster transport of the serving system: the
// ShardBackend seam the engine's coordinator fans out through, its HTTP
// implementation speaking the /v1 wire schema (httpbackend.go), the
// ring-routed query frontend (frontend.go), and the poller that re-exports
// peers' model-quality metrics (quality.go).
package peer

import (
	"context"
	"errors"
	"io"

	"dlinfma/internal/deploy"
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
)

// ShardBackend is the transport seam between the engine coordinator's fan-out
// logic and the shard that executes it. Everything engine.Engine needs from
// a shard per request is behind this interface, so a shard can be the
// in-process *engine.Shard (pool builder, accumulated dataset, model, and
// frozen store — no streams, WAL, or jobs of its own) or a remote process
// spoken to over HTTP (Client below), which is itself a full coordinator
// over its own shard. The seam covers exactly the operations that fan out
// per shard — single query, batch query, re-inference, health, and snapshot
// streaming; stream assembly, window ingest, the WAL, job state, and
// snapshot files stay the coordinator's concerns (a coordinator over remote
// shards hands each its part of a window through Ingester).
//
// Contract notes, written against the in-process implementation so a remote
// backend cannot drift from it:
//
//   - Query never blocks on ingest or retraining and answers
//     deploy.SourceNone for unknown addresses and cold shards. The
//     in-process form is lock-free and allocation-free and never fails;
//     remote forms bound the hop by ctx and their own timeout, and fail
//     only when no endpoint delivered an answer.
//   - QueryBatchIdx answers addrs[i] into out[i] for each position i in idx
//     (idx nil: every position), touching no other slot of out — a sharded
//     scatter/gather hands every backend the same addrs/out pair and
//     disjoint idx sets.
//   - Reinfer blocks until the shard's retrain finished, failed, or ctx
//     ended.
//   - Status never fails: a backend that cannot reach its shard reports
//     Failed with the reason in LastError.
//   - WriteSnapshot returns ErrNotReady (possibly wrapped) while the shard
//     has no serving state, and only then — a snapshot fan-out skips a shard
//     on that error and fails on any other.
type ShardBackend interface {
	// Query answers one address from the shard's served state; the error
	// is non-nil only when the shard could not be asked at all.
	Query(ctx context.Context, addr model.AddressID) (geo.Point, deploy.Source, error)
	// QueryBatchIdx answers the idx positions of addrs into the same
	// positions of out (idx nil: all of addrs).
	QueryBatchIdx(ctx context.Context, addrs []model.AddressID, idx []int32, out []deploy.BatchAnswer) error
	// Reinfer retrains the shard and swaps its serving state, synchronously.
	Reinfer(ctx context.Context) error
	// Status summarizes the shard's health for /healthz aggregation.
	Status() api.EngineStatus
	// WriteSnapshot streams the shard's serving snapshot to w.
	WriteSnapshot(w io.Writer) error
}

// Ingester is the window intake of a shard in another process, which the
// coordinator fans a batch window out through: the remote shard process's
// own engine extracts, queues, logs and cuts its part. In-process shards
// have no such method; their coordinator delivers every trip itself.
//
// Ingest applies one already-partitioned window, and answers
// deploy.ErrBackpressure (possibly wrapped) when the shard process's own
// backlog is full.
type Ingester interface {
	Ingest(ctx context.Context, trips []model.Trip, addrs []model.AddressInfo, truth map[model.AddressID]geo.Point) error
}

// ErrNotReady reports a shard with no serving state yet: nothing re-inferred,
// nothing restored. Remote shards answer it as the engine_not_ready envelope.
var ErrNotReady = errors.New("no serving state yet")
