package loadgen

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"dlinfma/internal/obs"
)

// histSubCount mirrors the shared histogram's linear sub-bucket count (see
// internal/obs/hdr.go); the bucket-level invariants are tested there, this
// file exercises the public surface the load generator depends on.
const histSubCount = 32

// TestHistogramQuantileVsSortedReference records a fixed-seed heavy-tailed
// latency sample and checks every interesting quantile against the exact
// answer from the sorted slice. The histogram's log-linear buckets promise
// a bounded relative error of 1/2^subBits; allow double that for boundary
// rank effects.
func TestHistogramQuantileVsSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := obs.NewHDRHistogram()
	n := 20000
	vals := make([]float64, n)
	for i := range vals {
		// Lognormal-ish: most requests fast, a long slow tail — the shape
		// real latency has and the one quantile estimators get wrong.
		us := 200 * (1 + rng.ExpFloat64()*rng.ExpFloat64()*50)
		vals[i] = us
		h.Record(time.Duration(us) * time.Microsecond)
	}
	sort.Float64s(vals)
	snap := h.Snapshot()
	if snap.Count() != int64(n) {
		t.Fatalf("count %d, want %d", snap.Count(), n)
	}
	tol := 2.0 / histSubCount
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		rank := int(q * float64(n-1))
		want := vals[rank]
		got := float64(snap.Quantile(q).Microseconds())
		relErr := (got - want) / want
		if relErr < 0 {
			relErr = -relErr
		}
		if relErr > tol {
			t.Errorf("q=%v: got %.0fµs, sorted reference %.0fµs (rel err %.3f > %.3f)",
				q, got, want, relErr, tol)
		}
	}
}

// TestHistogramExactLinearRegion checks sub-64µs values land exactly.
func TestHistogramExactLinearRegion(t *testing.T) {
	h := obs.NewHDRHistogram()
	for us := 0; us < 2*histSubCount; us++ {
		h.Record(time.Duration(us) * time.Microsecond)
	}
	snap := h.Snapshot()
	if got := snap.Quantile(0); got != 0 {
		t.Errorf("q0 = %v, want 0", got)
	}
	if got := snap.Quantile(1); got != time.Duration(2*histSubCount-1)*time.Microsecond {
		t.Errorf("q1 = %v, want %dµs", got, 2*histSubCount-1)
	}
	if got := snap.Max(); got != time.Duration(2*histSubCount-1)*time.Microsecond {
		t.Errorf("max = %v", got)
	}
}

// TestHistogramSubDelta checks interval deltas: the difference of two
// snapshots sees only the observations recorded in between.
func TestHistogramSubDelta(t *testing.T) {
	h := obs.NewHDRHistogram()
	for i := 0; i < 100; i++ {
		h.Record(time.Millisecond)
	}
	s1 := h.Snapshot()
	for i := 0; i < 50; i++ {
		h.Record(10 * time.Millisecond)
	}
	d := h.Snapshot().Sub(s1)
	if d.Count() != 50 {
		t.Fatalf("delta count %d, want 50", d.Count())
	}
	if q := d.Quantile(0.5); q < 9*time.Millisecond || q > 11*time.Millisecond {
		t.Fatalf("delta median %v, want ~10ms", q)
	}
	// Nil prev is the full snapshot.
	if full := h.Snapshot().Sub(nil); full.Count() != 150 {
		t.Fatalf("nil-prev delta count %d, want 150", full.Count())
	}
}

// TestStatsBackpressureOutcome checks that 429s recorded via
// RecordBackpressure count toward requests and latency but not errors.
func TestStatsBackpressureOutcome(t *testing.T) {
	s := NewStats()
	s.Record(EPStream, time.Millisecond, nil)
	s.RecordBackpressure(EPStream, 2*time.Millisecond)
	s.RecordBackpressure(EPStream, 2*time.Millisecond)
	snap := s.Snapshot()
	reqs, errs, bp := snap.Totals()
	if reqs != 3 || errs != 0 || bp != 2 {
		t.Fatalf("totals = (%d, %d, %d), want (3, 0, 2)", reqs, errs, bp)
	}
	es := snap.Endpoints[EPStream]
	if es.OK != 1 || es.Errors != 0 || es.Backpressure != 2 {
		t.Fatalf("endpoint snapshot = %+v", es)
	}
	if es.Hist.Count() != 3 {
		t.Fatalf("hist count %d, want 3 (rejections still time the round-trip)", es.Hist.Count())
	}
	d := s.Snapshot().Sub(snap)
	if d.Endpoints[EPStream].Backpressure != 0 {
		t.Fatalf("delta backpressure = %d, want 0", d.Endpoints[EPStream].Backpressure)
	}
}
