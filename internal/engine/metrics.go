package engine

import (
	"dlinfma/internal/deploy"
	"dlinfma/internal/obs"
)

// Engine-lifecycle metrics. Everything is process-global (the obs default
// registry); an engine's shards share the families, with per-shard
// breakdowns carried by the shard label where cardinality is bounded by the
// shard count.
var (
	ingestTrips = obs.Default.Counter("dlinfma_engine_ingested_trips_total",
		"Trips accepted by Ingest across all windows.")
	ingestAddrs = obs.Default.Counter("dlinfma_engine_ingested_addresses_total",
		"Distinct new addresses registered during ingest.")
	ingestWindows = obs.Default.Counter("dlinfma_engine_ingest_windows_total",
		"Non-empty trip windows cut for the candidate pool, counted as the shard's sealer takes them.")

	reinferDuration = obs.Default.HDRHistogram("dlinfma_engine_reinfer_duration_seconds",
		"Wall time of one full re-inference (pool finalize, featurize, train, predict, swap); log-linear HDR buckets.")
	reinferOutcome = obs.Default.CounterVec("dlinfma_engine_reinfer_total",
		"Re-inference attempts by outcome. Cancellation (shutdown) is not a failure.",
		"outcome")
	reinferSuccess  = reinferOutcome.With("success")
	reinferFailure  = reinferOutcome.With("failure")
	reinferCanceled = reinferOutcome.With("canceled")

	hotSwaps = obs.Default.Counter("dlinfma_engine_hot_swaps_total",
		"Atomic serving-state swaps (completed re-inferences plus snapshot restores).")

	streamPoints = obs.Default.Counter("dlinfma_engine_stream_points_total",
		"GPS fixes accepted on the streaming ingest path.")
	streamTripsByReason = obs.Default.CounterVec("dlinfma_engine_stream_trips_total",
		"Streamed trips closed, by close reason (gap rule vs explicit end marker).",
		"reason")
	streamTripsGap   = streamTripsByReason.With("gap")
	streamTripsEnd   = streamTripsByReason.With("end")
	openStreamsGauge = obs.Default.Gauge("dlinfma_engine_open_streams",
		"Couriers with an open trajectory stream (points accepted, trip not yet closed).")
	backpressureRejects = obs.Default.Counter("dlinfma_engine_backpressure_rejections_total",
		"Ingest operations rejected because the pending-trip backlog hit MaxPendingTrips.")

	// One observation per IngestBurst (a per-op call is a burst of one).
	ingestLockWait = obs.Default.HDRHistogram("dlinfma_engine_ingest_lock_wait_seconds",
		"Time one streamed burst waited for the engine's ingest lock; log-linear HDR buckets.")
	ingestLockHold = obs.Default.HDRHistogram("dlinfma_engine_ingest_lock_hold_seconds",
		"Time one streamed burst held the engine's ingest lock (encode, WAL append, apply); log-linear HDR buckets.")
	streamBurstOps = obs.Default.HDRHistogram("dlinfma_engine_stream_burst_ops",
		"Ops (fixes and end markers) per streamed burst: the lines one read of a stream body delivered, or 1 for a per-op call.")

	ingestShardTrips = obs.Default.GaugeVec("dlinfma_engine_ingest_shard_trips",
		"Cumulative trips routed to each shard of a sharded engine.",
		"shard")
	ingestSkew = obs.Default.Gauge("dlinfma_engine_ingest_skew",
		"Max/mean ratio of cumulative per-shard ingested trips (1 = perfectly balanced).")

	walReplaySeconds = obs.Default.Gauge("dlinfma_engine_wal_replay_seconds",
		"Wall time of the last write-ahead-log replay: every record re-applied, window seals included.")
	walReplayedRecords = obs.Default.Gauge("dlinfma_engine_wal_replayed_records",
		"Records the last write-ahead-log replay applied.")

	autoReinferTriggers = obs.Default.CounterVec("dlinfma_engine_auto_reinfer_triggers_total",
		"Re-inferences fired by the auto-reinfer monitor, by tripping condition (backlog size vs backlog age).",
		"reason")
	autoReinferBacklog = autoReinferTriggers.With("backlog")
	autoReinferAge     = autoReinferTriggers.With("age")

	snapshotOps = obs.Default.CounterVec("dlinfma_engine_snapshot_ops_total",
		"Snapshot operations by kind (save/restore) and outcome (ok/error).",
		"op", "outcome")
	snapshotSaveOK          = snapshotOps.With("save", "ok")
	snapshotSaveErr         = snapshotOps.With("save", "error")
	snapshotRestoreOK       = snapshotOps.With("restore", "ok")
	snapshotRestoreErr      = snapshotOps.With("restore", "error")
	snapshotRestoreDuration = obs.Default.HDRHistogram("dlinfma_engine_snapshot_restore_duration_seconds",
		"Wall time of one snapshot restore, document read to last shard serving; log-linear HDR buckets.")
	snapshotDecoderFallbacks = obs.Default.Counter("dlinfma_engine_snapshot_decoder_fallback_total",
		"Version-1 snapshot documents not in the writers' canonical form (reformatted or hand-edited), restored through encoding/json several times slower.")
	shardRoutedQueries = obs.Default.CounterVec("dlinfma_engine_shard_queries_total",
		"Queries routed to each shard of a sharded engine.",
		"shard")
	shardUnroutedQueries = shardRoutedQueries.With("none")

	queryBySource = obs.Default.CounterVec("dlinfma_engine_queries_total",
		"Engine queries by answering store level (address/building/geocode/none).",
		"source")
	// querySources pre-resolves one child per deploy.Source so the query hot
	// path is a single atomic add.
	querySources = [...]*obs.Counter{
		deploy.SourceAddress:  queryBySource.With("address"),
		deploy.SourceBuilding: queryBySource.With("building"),
		deploy.SourceGeocode:  queryBySource.With("geocode"),
		deploy.SourceNone:     queryBySource.With("none"),
	}
)

// countQuery records a query's answering source, tolerating out-of-range
// values defensively.
func countQuery(src deploy.Source) {
	if int(src) >= 0 && int(src) < len(querySources) {
		querySources[src].Inc()
	}
}

// flushQueryTally bulk-adds a batch worker's local per-source counts, so a
// thousand-key batch costs four atomic adds instead of a thousand.
func flushQueryTally(tally *[deploy.SourceNone + 1]int64) {
	for src, n := range tally {
		if n > 0 {
			querySources[src].Add(n)
			tally[src] = 0
		}
	}
}
