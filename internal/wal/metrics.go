package wal

import "dlinfma/internal/obs"

// WAL metrics live on the obs default registry so they surface on
// /v1/metrics alongside the engine and pipeline families. All WALs in a
// process share the families (one serve process runs one WAL).
var (
	appendsTotal = obs.Default.Counter("dlinfma_wal_appends_total",
		"Records appended to the write-ahead log.")
	appendBytes = obs.Default.Counter("dlinfma_wal_append_bytes_total",
		"Bytes appended to the write-ahead log, headers included.")
	appendDuration = obs.Default.HDRHistogram("dlinfma_wal_append_duration_seconds",
		"Wall time of one append call, single or batch, including any policy-mandated fsync.")
	fsyncsTotal = obs.Default.Counter("dlinfma_wal_fsyncs_total",
		"fsync calls issued by the write-ahead log: policy syncs, rotations, Sync and Close.")
	fsyncDuration = obs.Default.HDRHistogram("dlinfma_wal_fsync_duration_seconds",
		"Wall time of one fsync of the active segment.")
	rotationsTotal = obs.Default.Counter("dlinfma_wal_rotations_total",
		"Segment rotations (active segment sealed, fresh one opened).")
	replayRecords = obs.Default.Counter("dlinfma_wal_replay_records_total",
		"Records decoded during WAL replay at startup.")
	tornTailTruncations = obs.Default.Counter("dlinfma_wal_torn_tail_truncations_total",
		"Torn tail records discarded when opening the log after a crash.")
)
