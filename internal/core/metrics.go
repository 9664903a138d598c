package core

import (
	"time"

	"dlinfma/internal/obs"
	"dlinfma/internal/traj"
)

// Pipeline-stage metrics. One histogram family carries every stage's
// latency; granularity differs by stage and is part of the contract:
// stay_extract observes per batch-ingested trip (the parallel fan-out's unit
// of work; one pass of the extractor both filters noise and detects stays),
// pool_window per ingested window, freeze and diff per hot swap (the serving
// engine records them), and the rest per batch call. A re-inference reads
// pool_finalize → feature_build → fit → predict → freeze → diff.
var (
	stageDuration = obs.Default.HDRHistogramVec("dlinfma_pipeline_stage_duration_seconds",
		"Latency of each DLInfMA pipeline stage (stay_extract per batch-ingested trip, pool_window per window, pool_finalize/feature_build/fit/predict per call, freeze/diff per hot swap).",
		"stage")
	stageStayExtract  = stageDuration.With("stay_extract")
	stagePoolWindow   = stageDuration.With("pool_window")
	stagePoolFinalize = stageDuration.With("pool_finalize")
	stageFeatures     = stageDuration.With("feature_build")
	stageFit          = stageDuration.With("fit")
	stagePredict      = stageDuration.With("predict")
	// StageFreeze and StageDiff time a hot swap's two steps in the serving
	// engine: freezing the new store, and diffing it against the one it
	// replaces.
	StageFreeze = stageDuration.With("freeze")
	StageDiff   = stageDuration.With("diff")

	stayPointsTotal = obs.Default.Counter("dlinfma_pipeline_stay_points_total",
		"Stay points extracted from trajectories.")
	noisePoints = obs.Default.CounterVec("dlinfma_pipeline_noise_points_total",
		"GPS fixes through the noise filter by result; dropped/accepted is the data-quality drop rate.",
		"result")
	noiseAccepted = noisePoints.With("accepted")
	noiseDropped  = noisePoints.With("dropped")
	staysPerTrip  = obs.Default.HDRHistogram("dlinfma_pipeline_stays_per_trip",
		"Stay points detected per trip. A mass at zero means trajectories too short or too noisy to anchor a stay.")
	poolLocationsGauge = obs.Default.Gauge("dlinfma_pipeline_pool_locations",
		"Candidate locations in the most recently built pool.")
	candidatesTotal = obs.Default.Counter("dlinfma_pipeline_candidates_total",
		"Candidates retrieved across all featurized addresses.")
	samplesBuilt = obs.Default.CounterVec("dlinfma_pipeline_samples_total",
		"Featurized addresses by retrieval outcome; empty/with_candidates is the retrieval miss/hit rate.",
		"result")
	samplesWithCands = samplesBuilt.With("with_candidates")
	samplesEmpty     = samplesBuilt.With("empty")
)

// extractStayPoints is the instrumented per-trip extraction step of batch
// ingest: it pushes the trip through a traj.StreamExtractor, as the engine
// does fix by fix for a streamed trip, times the pass, and reports the trip
// through RecordTripQuality. Every batch window's extraction
// (ExtractAllStayPoints) funnels through it.
func extractStayPoints(tr traj.Trajectory, cfg Config) []traj.StayPoint {
	start := time.Now()
	x := traj.NewStreamExtractor(cfg.Noise, cfg.Stay)
	var sps []traj.StayPoint
	for _, p := range tr {
		sps = append(sps, x.Push(p)...)
	}
	accepted := x.Accepted() // Flush resets the trip's counter
	sps = append(sps, x.Flush()...)
	stageStayExtract.Record(time.Since(start))
	RecordTripQuality(accepted, len(tr)-accepted, len(sps))
	return sps
}

// RecordTripQuality feeds one trip's data-quality counts into the pipeline
// families — the noise filter's accept/drop funnel, stay points extracted,
// and stays per trip — so they read identically whichever ingest path a
// trip took. traj stays dependency-free; batch extraction calls this per
// trip, and the serving engine when it closes a streamed trip.
func RecordTripQuality(accepted, dropped, stays int) {
	noiseAccepted.Add(int64(accepted))
	noiseDropped.Add(int64(dropped))
	stayPointsTotal.Add(int64(stays))
	staysPerTrip.Observe(float64(stays))
}
