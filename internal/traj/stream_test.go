package traj

import (
	"math/rand"
	"testing"

	"dlinfma/internal/geo"
)

// streamAll pushes every fix of tr through a fresh StreamExtractor and
// returns the concatenation of everything emitted, including the Flush.
func streamAll(tr Trajectory, nf NoiseFilterConfig, sp StayPointConfig) []StayPoint {
	x := NewStreamExtractor(nf, sp)
	var out []StayPoint
	for _, p := range tr {
		out = append(out, x.Push(p)...)
	}
	return append(out, x.Flush()...)
}

// requireBitIdentical fails unless streamed and batch stay points agree on
// every field with exact float equality — the streaming contract is
// bit-identity, not approximation.
func requireBitIdentical(t *testing.T, tr Trajectory, nf NoiseFilterConfig, sp StayPointConfig) {
	t.Helper()
	want := ExtractStayPoints(tr, nf, sp)
	got := streamAll(tr, nf, sp)
	if len(got) != len(want) {
		t.Fatalf("streamed %d stay points, batch %d\nstreamed: %+v\nbatch: %+v",
			len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stay %d differs\nstreamed: %+v\nbatch:    %+v", i, got[i], want[i])
		}
	}
}

// buildNoisyDay builds a randomized trajectory exercising every branch of
// the noise filter and detector: walks, dwells of varying length (some under
// TMin), speed spikes, spike runs that trigger re-anchoring, and
// sub-MinInterval duplicate timestamps.
func buildNoisyDay(r *rand.Rand) Trajectory {
	var tr Trajectory
	t0, prev := 0.0, geo.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
	for seg := 0; seg < 3+r.Intn(6); seg++ {
		next := geo.Point{X: r.Float64() * 600, Y: r.Float64() * 600}
		w := walk(prev, next, 2+r.Float64()*6, 5+r.Float64()*10, t0)
		tr = append(tr, w...)
		t0 = w[len(w)-1].T + 5 + r.Float64()*10
		// Dwell between 10s (below TMin) and 250s.
		d := dwell(next, 10+r.Float64()*240, 5+r.Float64()*8, t0, r)
		tr = append(tr, d...)
		t0 = d[len(d)-1].T + 5 + r.Float64()*10
		prev = next
		switch r.Intn(4) {
		case 0: // single impossible spike (one-point outlier)
			tr = append(tr, GPSPoint{
				P: geo.Point{X: prev.X + 5000 + r.Float64()*5000, Y: prev.Y},
				T: t0,
			})
			t0 += 5 + r.Float64()*10
		case 1: // spike run: two mutually consistent outliers force re-anchoring
			far := geo.Point{X: prev.X + 8000, Y: prev.Y + 8000}
			tr = append(tr,
				GPSPoint{P: far, T: t0},
				GPSPoint{P: geo.Point{X: far.X + 10, Y: far.Y}, T: t0 + 10},
				GPSPoint{P: geo.Point{X: far.X + 20, Y: far.Y}, T: t0 + 20},
			)
			prev = geo.Point{X: far.X + 20, Y: far.Y}
			t0 += 30
		case 2: // duplicate / sub-interval timestamps
			tr = append(tr,
				GPSPoint{P: geo.Point{X: prev.X + 1, Y: prev.Y}, T: t0},
				GPSPoint{P: geo.Point{X: prev.X + 2, Y: prev.Y}, T: t0},
				GPSPoint{P: geo.Point{X: prev.X + 3, Y: prev.Y}, T: t0 + 0.3},
			)
			t0 += 5 + r.Float64()*10
		}
	}
	return tr
}

func TestStreamExtractorBitIdenticalRandom(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr := buildNoisyDay(r)
		requireBitIdentical(t, tr, DefaultNoiseFilter(), DefaultStayPointConfig())
	}
}

func TestStreamExtractorBitIdenticalConfigs(t *testing.T) {
	// Sweep thresholds, including zero configs that trigger defaulting in
	// both implementations.
	cfgs := []struct {
		nf NoiseFilterConfig
		sp StayPointConfig
	}{
		{NoiseFilterConfig{}, StayPointConfig{}},
		{NoiseFilterConfig{MaxSpeed: 5, MinInterval: 1}, StayPointConfig{DMax: 10, TMin: 15}},
		{NoiseFilterConfig{MaxSpeed: 50, MinInterval: 0}, StayPointConfig{DMax: 60, TMin: 120}},
		{DefaultNoiseFilter(), StayPointConfig{DMax: 20, TMin: 1}},
	}
	for _, cfg := range cfgs {
		for seed := int64(100); seed < 110; seed++ {
			r := rand.New(rand.NewSource(seed))
			tr := buildNoisyDay(r)
			requireBitIdentical(t, tr, cfg.nf, cfg.sp)
		}
	}
}

func TestStreamExtractorEdgeCases(t *testing.T) {
	nf, sp := DefaultNoiseFilter(), DefaultStayPointConfig()
	r := rand.New(rand.NewSource(42))

	cases := map[string]Trajectory{
		"empty":     nil,
		"single":    {{P: geo.Point{X: 1, Y: 2}, T: 0}},
		"two close": {{P: geo.Point{X: 0, Y: 0}, T: 0}, {P: geo.Point{X: 1, Y: 0}, T: 40}},
		"trailing dwell (end-of-input emission)": concat(
			walk(geo.Point{}, geo.Point{X: 200, Y: 0}, 5, 10, 0),
			dwell(geo.Point{X: 200, Y: 0}, 120, 10, 500, r),
		),
		"pure dwell": dwell(geo.Point{X: 7, Y: 7}, 300, 10, 0, r),
		"all spikes": {
			{P: geo.Point{X: 0, Y: 0}, T: 0},
			{P: geo.Point{X: 9000, Y: 0}, T: 10},
			{P: geo.Point{X: 0, Y: 9000}, T: 20},
			{P: geo.Point{X: 9000, Y: 9000}, T: 30},
		},
	}
	for name, tr := range cases {
		t.Run(name, func(t *testing.T) {
			requireBitIdentical(t, tr, nf, sp)
		})
	}
}

func TestStreamExtractorReusableAcrossTrips(t *testing.T) {
	// Flush must fully reset the extractor: running trip B after trip A
	// through the same extractor must match a fresh extractor on trip B.
	r := rand.New(rand.NewSource(7))
	a := buildNoisyDay(r)
	b := buildNoisyDay(r)

	x := NewStreamExtractor(DefaultNoiseFilter(), DefaultStayPointConfig())
	for _, p := range a {
		x.Push(p)
	}
	x.Flush()
	var got []StayPoint
	for _, p := range b {
		got = append(got, x.Push(p)...)
	}
	got = append(got, x.Flush()...)

	want := streamAll(b, DefaultNoiseFilter(), DefaultStayPointConfig())
	if len(got) != len(want) {
		t.Fatalf("reused extractor emitted %d stays, fresh %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stay %d differs after reuse: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestStreamExtractorCompaction(t *testing.T) {
	// A long slow walk never emits but must not pin the whole history: the
	// buffer should stay bounded by the open window, not the trip length.
	x := NewStreamExtractor(DefaultNoiseFilter(), DefaultStayPointConfig())
	for i := 0; i < 10000; i++ {
		x.Push(GPSPoint{P: geo.Point{X: float64(i) * 25, Y: 0}, T: float64(i) * 10})
	}
	if n := len(x.buf) - x.head; n > 16 {
		t.Fatalf("open window holds %d points after a long walk, want small", n)
	}
}
