package traj

import (
	"math/rand"
	"testing"

	"dlinfma/internal/geo"
)

// acceptedCount pushes every fix of tr through a fresh StreamExtractor and
// returns how many passed its noise filter.
func acceptedCount(tr Trajectory, nf NoiseFilterConfig) int {
	x := NewStreamExtractor(nf, DefaultStayPointConfig())
	for _, p := range tr {
		x.Push(p)
	}
	return x.Accepted()
}

// requireBitIdentical fails unless ExtractStayPoints agrees with the
// Definition-4 reference (detectStayPoints over filterNoise) on every field
// with exact float equality, and the extractor's Accepted count equals the
// length of the reference filter's output — the contract is bit-identity,
// not approximation.
func requireBitIdentical(t *testing.T, tr Trajectory, nf NoiseFilterConfig, sp StayPointConfig) {
	t.Helper()
	filtered := filterNoise(tr, nf)
	want := detectStayPoints(filtered, sp)
	got := ExtractStayPoints(tr, nf, sp)
	if len(got) != len(want) {
		t.Fatalf("extracted %d stay points, reference %d\nextracted: %+v\nreference: %+v",
			len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stay %d differs\nextracted: %+v\nreference: %+v", i, got[i], want[i])
		}
	}
	if n := acceptedCount(tr, nf); n != len(filtered) {
		t.Fatalf("Accepted() = %d, reference filter kept %d", n, len(filtered))
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
	if n := x.Accepted(); n != 0 {
		t.Fatalf("Accepted() = %d after Flush, want 0", n)
	}
	var got []StayPoint
	for _, p := range b {
		got = append(got, x.Push(p)...)
	}
	got = append(got, x.Flush()...)

	want := ExtractStayPoints(b, DefaultNoiseFilter(), DefaultStayPointConfig())
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

// fuzzConfigs are the thresholds a fuzz input's first byte selects from: the
// paper's, the zero configs that take the defaults, tight and loose ones, and
// MinInterval <= 0, where duplicate and backward timestamps reach the speed
// test.
var fuzzConfigs = [...]struct {
	nf NoiseFilterConfig
	sp StayPointConfig
}{
	{DefaultNoiseFilter(), DefaultStayPointConfig()},
	{NoiseFilterConfig{}, StayPointConfig{}},
	{NoiseFilterConfig{MaxSpeed: 5, MinInterval: 1}, StayPointConfig{DMax: 10, TMin: 15}},
	{NoiseFilterConfig{MaxSpeed: 50, MinInterval: 0}, StayPointConfig{DMax: 60, TMin: 120}},
	{DefaultNoiseFilter(), StayPointConfig{DMax: 20, TMin: 1}},
	{NoiseFilterConfig{MaxSpeed: 25, MinInterval: -5}, DefaultStayPointConfig()},
}

// fuzzFixes decodes four bytes per fix, [op, a, b, c], into a trajectory.
// The courier sits at a base position; c/8 s is a time step and int8(a),
// int8(b) an offset. op%8 picks the fix: 0–3 move the base by the offset in
// quarter metres after c/8 s (dwells and walks, zero and sub-second steps
// among them), 4 moves it without advancing the clock (a duplicate
// timestamp), 5 stays put c/8 s back in time, 6 is a spike 100 m per unit
// off the base that leaves the base where it was, and 7 moves the base that
// far (a run of consistent outliers, which re-anchors the filter). Every
// coordinate is finite.
func fuzzFixes(data []byte) Trajectory {
	var tr Trajectory
	var pos geo.Point
	t := 0.0
	for ; len(data) >= 4; data = data[4:] {
		op, a, b, c := data[0]%8, float64(int8(data[1])), float64(int8(data[2])), float64(data[3])/8
		switch op {
		case 4:
			pos.X, pos.Y = pos.X+a/4, pos.Y+b/4
		case 5:
			t -= c
		case 6:
			t += c
			tr = append(tr, GPSPoint{P: geo.Point{X: pos.X + a*100, Y: pos.Y + b*100}, T: t})
			continue
		case 7:
			t += c
			pos.X, pos.Y = pos.X+a*100, pos.Y+b*100
		default:
			t += c
			pos.X, pos.Y = pos.X+a/4, pos.Y+b/4
		}
		tr = append(tr, GPSPoint{P: pos, T: t})
	}
	return tr
}

// FuzzStayPointExtraction holds the one stay-point extractor to its
// definition: on any fix sequence and any of fuzzConfigs, ExtractStayPoints
// must equal detectStayPoints over filterNoise bit for bit, and Accepted
// must count exactly the fixes the reference filter keeps.
func FuzzStayPointExtraction(f *testing.F) {
	// dwell returns n 10 s steps of sub-metre jitter.
	dwell := func(n int) []byte {
		var b []byte
		for i := 0; i < n; i++ {
			b = append(b, 0, byte(i%3), byte(-(i % 2)), 80)
		}
		return b
	}
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	walk := []byte{1, 120, 0, 80, 1, 120, 0, 80, 1, 120, 0, 80}
	spike := []byte{6, 50, 50, 80}
	jump := []byte{7, 60, 0, 40, 0, 4, 0, 40, 0, 4, 0, 40}
	dup := []byte{4, 2, 0, 0, 0, 1, 0, 2, 5, 0, 0, 40}
	for cfg := byte(0); cfg < byte(len(fuzzConfigs)); cfg++ {
		f.Add(cat([]byte{cfg}, dwell(12)))
		f.Add(cat([]byte{cfg}, walk, dwell(8), spike, dwell(8), walk))
		f.Add(cat([]byte{cfg}, dwell(5), jump, dwell(6), dup, dwell(6)))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1024 {
			return
		}
		cfg := fuzzConfigs[int(data[0])%len(fuzzConfigs)]
		requireBitIdentical(t, fuzzFixes(data[1:]), cfg.nf, cfg.sp)
	})
}
