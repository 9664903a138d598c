// Package loadgen is the open-loop load generator behind cmd/swarm: it
// synthesizes realistic request mixes against a live dlinfma server, paces
// arrivals on an absolute timer schedule (so slow responses never throttle
// the offered load — the coordinated-omission trap), records latency into
// the log-linear obs.HDRHistogram the server also uses (so client- and
// server-side quantiles are directly comparable), and ramps the arrival
// rate until an SLO breaks to find the maximum sustainable throughput of a
// configuration.
package loadgen

import (
	"context"
	"time"
)

// StageOptions tunes the fixed-rate stages the orchestrator runs.
type StageOptions struct {
	// Poisson switches arrivals from exact 1/rate pacing to a seeded
	// Poisson process.
	Poisson bool
	// Seed reproduces a Poisson stage's arrival gaps.
	Seed int64
	// MaxInFlight bounds concurrent operations (see OpenLoopOptions).
	MaxInFlight int
}

// RunStage drives the workload open-loop at a fixed rate for d and measures
// just that window: results are computed from snapshot deltas, so stages
// sharing one workload (and its histograms) stay isolated. The stage waits
// for its in-flight tail, and AchievedQPS is completions over full wall
// time — a stage that queues a tail it can't finish inside d shows a
// depressed achieved rate rather than hiding it.
func RunStage(ctx context.Context, w *Workload, rate float64, d time.Duration, opts StageOptions) StageResult {
	before := w.stats.Snapshot()
	var sched *Schedule
	if opts.Poisson {
		sched = NewPoissonSchedule(rate, opts.Seed)
	} else {
		sched = NewUniformSchedule(rate)
	}
	res := RunOpenLoop(ctx, sched, d, OpenLoopOptions{MaxInFlight: opts.MaxInFlight}, w.Next)
	delta := w.stats.Snapshot().Sub(before)
	merged := delta.Merged()
	reqs, errs, bp := delta.Totals()
	out := StageResult{
		TargetQPS:    rate,
		Requests:     reqs,
		Errors:       errs,
		Backpressure: bp,
		Dropped:      res.Dropped,
		P50:          merged.Quantile(0.50),
		P95:          merged.Quantile(0.95),
		P99:          merged.Quantile(0.99),
		Max:          merged.Max(),
	}
	if res.Elapsed > 0 {
		out.AchievedQPS = float64(reqs) / res.Elapsed.Seconds()
	}
	return out
}
