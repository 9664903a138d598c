package obs

import (
	"bufio"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// HDRHistogram is the repo's one histogram: an HdrHistogram-shaped
// log-linear collector. Values bucket into power-of-two major buckets, each
// split into 2^hdrSubBits linear sub-buckets, giving a bounded relative error
// of 1/2^hdrSubBits (~3%) at every magnitude with a fixed, small footprint.
// Values are stored in millionths of their unit — microseconds for a
// duration (Record), millionths of a meter, a probability or a count for a
// plain value (Observe) — so one layout resolves 1µs RTTs and multi-second
// stalls, 20 m building moves and 2 km geocode corrections, and a confidence
// of 0.53 next to one of 0.99, without a bucket set to pick per family.
//
// Record/Observe are lock-free (three atomic adds) and safe from any number of
// goroutines. The zero value is usable but not registered; use
// Registry.HDRHistogram for an exposed metric or NewHDRHistogram for a
// standalone collector.
const (
	hdrSubBits  = 5
	hdrSubCount = 1 << hdrSubBits
	// hdrBuckets covers every uint64 microsecond value: the maximum major
	// exponent is 64-hdrSubBits, and each contributes hdrSubCount buckets on
	// top of the doubled-width linear region at the bottom.
	hdrBuckets = (64-hdrSubBits)*hdrSubCount + 2*hdrSubCount
)

// hdrIndex maps a non-negative microsecond value to its bucket. Values below
// 2*hdrSubCount land exactly (linear region); larger values keep the top
// hdrSubBits+1 significant bits.
func hdrIndex(us int64) int {
	u := uint64(us)
	if u < 2*hdrSubCount {
		return int(u)
	}
	exp := bits.Len64(u) - hdrSubBits - 1
	return exp*hdrSubCount + int(u>>exp)
}

// hdrUpperUS is the largest microsecond value that lands in bucket i — the
// inclusive upper bound used as the cumulative `le` edge in the exposition.
func hdrUpperUS(i int) int64 {
	if i < 2*hdrSubCount {
		return int64(i)
	}
	exp := i/hdrSubCount - 1
	m := uint64(i - exp*hdrSubCount)
	if bits.Len64(m+1)+exp > 63 {
		// The top buckets' bounds overflow int64 microseconds; clamp. No
		// recordable duration lands past MaxInt64 µs anyway.
		return math.MaxInt64
	}
	return int64((m+1)<<exp) - 1
}

// HDRHistogram is the concurrent collector. See the comment above the bucket
// constants for the layout.
type HDRHistogram struct {
	name   string
	labels string // pre-rendered {k="v",...} or "" (vec children)
	counts [hdrBuckets]atomic.Int64
	total  atomic.Int64
	sum    atomic.Int64 // microseconds, for Sum
}

// NewHDRHistogram returns an empty standalone (unregistered) histogram.
func NewHDRHistogram() *HDRHistogram { return &HDRHistogram{} }

// Record adds one observation. Negative durations clamp to zero.
func (h *HDRHistogram) Record(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.counts[hdrIndex(us)].Add(1)
	h.total.Add(1)
	h.sum.Add(us)
}

// Observe records one plain value in the family's unit — seconds for a
// duration family, meters, a probability or a count otherwise — at 1e-6
// resolution. Zero, negatives and NaN record as zero; a value too large for
// a Duration's nanoseconds (about 9.2e9, and +Inf) saturates into the top
// bucket instead of wrapping.
func (h *HDRHistogram) Observe(v float64) {
	d := time.Duration(math.MaxInt64)
	switch ns := v * float64(time.Second); {
	case !(ns > 0):
		d = 0
	case ns < 1<<63:
		d = time.Duration(math.Round(ns))
	}
	h.Record(d)
}

// Sum returns the sum of observations in the family's unit (seconds for
// Record).
func (h *HDRHistogram) Sum() float64 { return float64(h.sum.Load()) / 1e6 }

// exposeHDR renders an HDRHistogram as a standard Prometheus histogram with
// sparse cumulative buckets: one `le` edge per non-empty bucket (upper bound
// converted back to the family's unit) plus +Inf. Sparse cumulative buckets
// are valid exposition — quantile estimation only needs the edges that hold
// data — and keep the ~2k-bucket layout from bloating the scrape.
func exposeHDR(w *bufio.Writer, h *HDRHistogram) {
	cum := int64(0)
	for i := 0; i < hdrBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		le := formatFloat(float64(hdrUpperUS(i)) / 1e6)
		fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, mergeLabels(h.labels, `le="`+le+`"`), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, mergeLabels(h.labels, `le="+Inf"`), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", h.name, h.labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", h.name, h.labels, h.total.Load())
}

// HDRHistogram registers and returns a new unlabelled log-linear histogram.
// It exposes as an ordinary TYPE histogram whose bucket edges are the
// non-empty buckets.
func (r *Registry) HDRHistogram(name, help string) *HDRHistogram {
	h := &HDRHistogram{name: name}
	r.register(name, &singleMetric{name: name, help: help, typ: "histogram", m: h})
	return h
}

// HDRHistogramVec is a log-linear histogram family with a fixed label-key set.
type HDRHistogramVec struct {
	v *vec
}

// HDRHistogramVec registers a labelled log-linear histogram family.
func (r *Registry) HDRHistogramVec(name, help string, keys ...string) *HDRHistogramVec {
	hv := &HDRHistogramVec{
		v: &vec{name: name, help: help, typ: "histogram", keys: keys, children: make(map[string]metricChild)},
	}
	r.register(name, hv.v)
	return hv
}

// With returns (creating if needed) the child histogram for the label values.
func (h *HDRHistogramVec) With(values ...string) *HDRHistogram {
	return h.v.child(values, func(labels string) any {
		return &HDRHistogram{name: h.v.name, labels: labels}
	}).(*HDRHistogram)
}
