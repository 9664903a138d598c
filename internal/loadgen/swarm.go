// Package loadgen is the open-loop load generator behind cmd/swarm: it
// synthesizes realistic request mixes against a live dlinfma server, paces
// arrivals on an absolute timer schedule (so slow responses never throttle
// the offered load — the coordinated-omission trap), records latency into
// the log-linear obs.HDRHistogram the server also uses (so client- and
// server-side quantiles are directly comparable), and reports one fixed-rate
// stage per run. It is the traffic source for the smokes and fault drills;
// end-to-end performance numbers come from bench/run.sh, not from here.
package loadgen

import (
	"context"
	"time"
)

// StageResult is the measured outcome of one stage: a fixed arrival rate
// held for a fixed duration. Latencies are fractional milliseconds, the
// unit every latency in cmd/swarm's report uses.
type StageResult struct {
	// TargetQPS is the offered arrival rate.
	TargetQPS float64 `json:"target_qps"`
	// AchievedQPS counts completed operations per second of stage wall time.
	AchievedQPS float64 `json:"achieved_qps"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	// Backpressure counts 429 rejections — the server shedding load by
	// design. Not counted in Errors: a saturated ingest path that says so is
	// meeting its contract, not breaking it.
	Backpressure int64   `json:"backpressure,omitempty"`
	Dropped      int64   `json:"dropped"`
	P50MS        float64 `json:"p50_ms"`
	P95MS        float64 `json:"p95_ms"`
	P99MS        float64 `json:"p99_ms"`
	MaxMS        float64 `json:"max_ms"`
}

// durToMS renders a duration as fractional milliseconds.
func durToMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// StageOptions tunes a fixed-rate stage.
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
		P50MS:        durToMS(merged.Quantile(0.50)),
		P95MS:        durToMS(merged.Quantile(0.95)),
		P99MS:        durToMS(merged.Quantile(0.99)),
		MaxMS:        durToMS(merged.Max()),
	}
	if res.Elapsed > 0 {
		out.AchievedQPS = float64(reqs) / res.Elapsed.Seconds()
	}
	return out
}
