package wal

import "dlinfma/internal/obs"

// WAL metrics live on the obs default registry so they surface on
// /v1/metrics alongside the engine and pipeline families. Every family is
// labelled by log (Options.Log): a serve process with -wal-dir runs two, the
// fix log and the window log, and each log's series count its own work.
var (
	appendsTotal = obs.Default.CounterVec("dlinfma_wal_appends_total",
		"Records appended to the write-ahead log.", "log")
	appendBytes = obs.Default.CounterVec("dlinfma_wal_append_bytes_total",
		"Bytes appended to the write-ahead log, headers included.", "log")
	appendDuration = obs.Default.HDRHistogramVec("dlinfma_wal_append_duration_seconds",
		"Wall time of one append call, single or batch, including any policy-mandated fsync.", "log")
	fsyncsTotal = obs.Default.CounterVec("dlinfma_wal_fsyncs_total",
		"fsync calls issued by the write-ahead log: policy syncs, rotations, Sync, Close, and the directory syncs after a segment is created or removed.", "log")
	fsyncDuration = obs.Default.HDRHistogramVec("dlinfma_wal_fsync_duration_seconds",
		"Wall time of one fsync of a segment or of the log's directory.", "log")
	rotationsTotal = obs.Default.CounterVec("dlinfma_wal_rotations_total",
		"Segment rotations (active segment sealed, fresh one opened).", "log")
	replayRecords = obs.Default.CounterVec("dlinfma_wal_replay_records_total",
		"Records decoded during WAL replay at startup.", "log")
	tornTailTruncations = obs.Default.CounterVec("dlinfma_wal_torn_tail_truncations_total",
		"Torn tail records discarded when opening the log after a crash.", "log")
	segmentsDeleted = obs.Default.CounterVec("dlinfma_wal_segments_deleted_total",
		"Segments deleted because every record in them lies before the log's compaction point.", "log")
	retainedBytes = obs.Default.GaugeVec("dlinfma_wal_retained_bytes",
		"Bytes of records past the log's compaction point, headers included: what a restart reads.", "log")
	compactedSeq = obs.Default.GaugeVec("dlinfma_wal_compacted_seq",
		"Sequence of the last record before the log's compaction point (0: nothing compacted); a restart reads none of them.", "log")
)

// logMetrics is one log's children of the families above.
type logMetrics struct {
	appends, appendBytes, fsyncs, rotations   *obs.Counter
	replayRecords, tornTails, segmentsDeleted *obs.Counter
	appendDuration, fsyncDuration             *obs.HDRHistogram
	retained, compacted                       *obs.Gauge
}

func metricsFor(log string) *logMetrics {
	return &logMetrics{
		appends:         appendsTotal.With(log),
		appendBytes:     appendBytes.With(log),
		fsyncs:          fsyncsTotal.With(log),
		rotations:       rotationsTotal.With(log),
		replayRecords:   replayRecords.With(log),
		tornTails:       tornTailTruncations.With(log),
		segmentsDeleted: segmentsDeleted.With(log),
		appendDuration:  appendDuration.With(log),
		fsyncDuration:   fsyncDuration.With(log),
		retained:        retainedBytes.With(log),
		compacted:       compactedSeq.With(log),
	}
}
