package engine

import (
	"sync"
	"time"

	"dlinfma/internal/deploy"
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/obs"
)

// Model-quality metrics: how much the served answers changed at each
// hot-swap, how confident the matcher is in what it serves, and how often
// the read path answers from a low-confidence address. All families carry a
// shard label ("global" for a one-shard engine) so a sharded process shows
// per-shard churn without scrape-side aggregation.
var (
	reinferChurnRatio = obs.Default.GaugeVec("dlinfma_reinfer_churn_ratio",
		"Fraction of addresses answerable before and after the last hot-swap whose location moved.",
		"shard")
	reinferMovedDistance = obs.Default.HDRHistogramVec("dlinfma_reinfer_moved_distance_meters",
		"Distance a served address location moved across a hot-swap, in meters.",
		"shard")
	reinferConfidence = obs.Default.HDRHistogramVec("dlinfma_reinfer_confidence",
		"Top-1 probability of each address-level inference produced by a re-inference.",
		"shard")
	lowConfAddresses = obs.Default.GaugeVec("dlinfma_serving_low_confidence_addresses",
		"Address-level answers in the served store whose top-1 probability sits below the low-confidence threshold.",
		"shard")
	lowConfQueries = obs.Default.Counter("dlinfma_engine_low_confidence_queries_total",
		"Serving queries answered from an address whose inference confidence sits below the threshold.")
)

// swapHistory is the number of hot-swap churn reports each shard keeps for
// GET /v1/debug/swaps.
const swapHistory = 32

// defaultLowConfidence is the threshold when Config.LowConfidence is unset.
const defaultLowConfidence = 0.5

// swapKind values recorded in SwapReport.Kind.
const (
	swapKindReinfer = "reinfer"
	swapKindRestore = "restore"
)

// swapRing keeps the last N hot-swap churn reports, newest first on read.
type swapRing struct {
	mu   sync.Mutex
	cap  int
	seq  int64
	reps []api.SwapReport // oldest..newest, len <= cap
}

func newSwapRing(capacity int) *swapRing { return &swapRing{cap: capacity} }

// push appends a report, assigning its per-shard sequence number, and
// evicts the oldest past capacity.
func (r *swapRing) push(rep api.SwapReport) api.SwapReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	rep.Seq = r.seq
	r.reps = append(r.reps, rep)
	if len(r.reps) > r.cap {
		copy(r.reps, r.reps[len(r.reps)-r.cap:])
		r.reps = r.reps[:r.cap]
	}
	return rep
}

// list returns up to limit reports, newest first (limit <= 0: all).
func (r *swapRing) list(limit int) []api.SwapReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.reps)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]api.SwapReport, 0, n)
	for i := len(r.reps) - 1; i >= len(r.reps)-n; i-- {
		out = append(out, r.reps[i])
	}
	return out
}

// churnReport diffs the outgoing frozen store against the incoming one,
// records the churn metrics under the shard's label, and pushes a
// report onto the swap ring. Runs after the swap published — the serving
// path never waits on the diff.
func (s *Shard) churnReport(old, incoming *deploy.FrozenStore, kind string) {
	movedHist := reinferMovedDistance.With(s.label)
	c := deploy.DiffFrozen(old, incoming, float64(s.lowConf), func(meters float64) {
		movedHist.Observe(meters)
	})
	reinferChurnRatio.With(s.label).Set(c.Ratio())
	lowConfAddresses.With(s.label).Set(float64(c.LowConfidence))

	rep := api.SwapReport{
		Shard:           s.label,
		Time:            time.Now().UTC(),
		Kind:            kind,
		Before:          c.Before,
		After:           c.After,
		Added:           c.Added,
		Dropped:         c.Dropped,
		Moved:           c.Moved,
		Retained:        c.Retained,
		ChurnRatio:      c.Ratio(),
		MeanMovedMeters: c.MeanMovedMeters,
		MaxMovedMeters:  c.MaxMovedMeters,
		LowConfidence:   c.LowConfidence,
	}
	if c.Moved > 0 {
		rep.MovedDistance = make([]api.SwapDistanceBucket, 0, len(c.MovedDist))
		for i, n := range c.MovedDist {
			if n == 0 {
				continue
			}
			b := api.SwapDistanceBucket{Count: n}
			if i < len(deploy.ChurnDistanceBounds) {
				b.LEMeters = deploy.ChurnDistanceBounds[i]
			} else {
				b.Inf = true
			}
			rep.MovedDistance = append(rep.MovedDistance, b)
		}
	}
	rep = s.swaps.push(rep)
	s.log.Info("hot-swap churn",
		"shard", s.label, "kind", kind, "seq", rep.Seq,
		"before", rep.Before, "after", rep.After,
		"added", rep.Added, "dropped", rep.Dropped, "moved", rep.Moved,
		"churn_ratio", rep.ChurnRatio, "low_confidence", rep.LowConfidence)
}
