package core

import (
	"time"

	"dlinfma/internal/obs"
	"dlinfma/internal/traj"
)

// Pipeline-stage metrics. One histogram family carries every stage's
// latency; granularity differs by stage and is part of the contract:
// noise_filter and stay_detect observe per trip (the parallel fan-out's unit
// of work), pool_window per ingested window, freeze and diff per hot swap
// (the serving engine records them), and the rest per batch call. A
// re-inference reads pool_finalize → feature_build → fit → predict → freeze
// → diff.
var (
	stageDuration = obs.Default.HDRHistogramVec("dlinfma_pipeline_stage_duration_seconds",
		"Latency of each DLInfMA pipeline stage (noise_filter and stay_detect per trip, pool_window per window, pool_finalize/feature_build/fit/predict per call, freeze/diff per hot swap).",
		"stage")
	stageNoise        = stageDuration.With("noise_filter")
	stageStayDetect   = stageDuration.With("stay_detect")
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

// extractStayPoints is the instrumented per-trip extraction step: it splits
// traj.ExtractStayPoints into its two stages so each gets its own timing,
// and counts the stay points produced. ExtractAllStayPoints and the pool
// builder's AddWindow both funnel through it.
func extractStayPoints(tr traj.Trajectory, cfg Config) []traj.StayPoint {
	t0 := time.Now()
	filtered := traj.FilterNoise(tr, cfg.Noise)
	t1 := time.Now()
	sps := traj.DetectStayPoints(filtered, cfg.Stay)
	t2 := time.Now()
	stageNoise.Record(t1.Sub(t0))
	stageStayDetect.Record(t2.Sub(t1))
	stayPointsTotal.Add(int64(len(sps)))
	noiseAccepted.Add(int64(len(filtered)))
	noiseDropped.Add(int64(len(tr) - len(filtered)))
	staysPerTrip.Observe(float64(len(sps)))
	return sps
}

// RecordTripQuality feeds one streamed trip's data-quality counts into the
// same pipeline families the batch extractor populates, so drop rate and
// stays-per-trip read identically whichever ingest path a trip took. traj
// stays dependency-free; the serving engine calls this when it closes a trip.
func RecordTripQuality(accepted, dropped, stays int) {
	noiseAccepted.Add(int64(accepted))
	noiseDropped.Add(int64(dropped))
	staysPerTrip.Observe(float64(stays))
}
