package loadgen

import (
	"context"
	"sync"
	"time"
)

// SeriesPoint is one sampling interval of a run: offered vs achieved rate
// and the latency percentiles of just that interval (delta histograms, not
// cumulative — a cumulative p99 hides when things went bad).
type SeriesPoint struct {
	// OffsetMS is the interval's end, measured from the start of the run.
	OffsetMS float64 `json:"offset_ms"`
	// TargetQPS is the arrival rate the schedule offered in this interval.
	TargetQPS float64 `json:"target_qps"`
	// AchievedQPS counts completed operations (any outcome) per second.
	AchievedQPS float64 `json:"achieved_qps"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	Errors      int64   `json:"errors"`
	// Backpressure counts 429 rejections in the interval (not errors).
	Backpressure int64 `json:"backpressure,omitempty"`
}

// Timeseries accumulates interval samples. Safe for one sampler and many
// readers.
type Timeseries struct {
	mu  sync.Mutex
	pts []SeriesPoint
}

// NewTimeseries returns an empty series.
func NewTimeseries() *Timeseries { return &Timeseries{} }

// Append adds one interval point.
func (ts *Timeseries) Append(p SeriesPoint) {
	ts.mu.Lock()
	ts.pts = append(ts.pts, p)
	ts.mu.Unlock()
}

// Points copies the accumulated samples.
func (ts *Timeseries) Points() []SeriesPoint {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]SeriesPoint, len(ts.pts))
	copy(out, ts.pts)
	return out
}

// Sample runs a sampling loop until ctx is done: every interval it takes a
// stats snapshot, diffs it against the previous one, and appends the
// interval's qps/percentiles to the series. target is the offered rate.
// onSample, when non-nil, is called with each fresh point — the terminal
// dashboard hangs off this.
func Sample(ctx context.Context, stats *Stats, ts *Timeseries, interval time.Duration, start time.Time, target float64, onSample func(SeriesPoint)) {
	if interval <= 0 {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	prev := stats.Snapshot()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		cur := stats.Snapshot()
		delta := cur.Sub(prev)
		prev = cur
		merged := delta.Merged()
		reqs, errs, bp := delta.Totals()
		p := SeriesPoint{
			OffsetMS:     durToMS(time.Since(start)),
			TargetQPS:    target,
			AchievedQPS:  float64(reqs) / interval.Seconds(),
			P50MS:        durToMS(merged.Quantile(0.50)),
			P99MS:        durToMS(merged.Quantile(0.99)),
			Errors:       errs,
			Backpressure: bp,
		}
		ts.Append(p)
		if onSample != nil {
			onSample(p)
		}
	}
}
