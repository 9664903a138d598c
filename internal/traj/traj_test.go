package traj

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dlinfma/internal/geo"
)

// walk builds a trajectory that moves from a toward b at the given speed,
// sampled every dt seconds starting at t0.
func walk(a, b geo.Point, speed, dt, t0 float64) Trajectory {
	d := geo.Dist(a, b)
	if d == 0 {
		return Trajectory{{P: a, T: t0}}
	}
	steps := int(d/(speed*dt)) + 1
	var tr Trajectory
	for i := 0; i <= steps; i++ {
		f := float64(i) / float64(steps)
		tr = append(tr, GPSPoint{
			P: geo.Point{X: a.X + f*(b.X-a.X), Y: a.Y + f*(b.Y-a.Y)},
			T: t0 + float64(i)*dt,
		})
	}
	return tr
}

// dwell builds a trajectory that stays at p (with jitter) for dur seconds.
func dwell(p geo.Point, dur, dt, t0 float64, r *rand.Rand) Trajectory {
	var tr Trajectory
	for t := 0.0; t <= dur; t += dt {
		j := geo.Point{X: p.X + r.NormFloat64()*2, Y: p.Y + r.NormFloat64()*2}
		tr = append(tr, GPSPoint{P: j, T: t0 + t})
	}
	return tr
}

func concat(parts ...Trajectory) Trajectory {
	var out Trajectory
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func TestAtInterpolates(t *testing.T) {
	tr := Trajectory{
		{P: geo.Point{X: 0, Y: 0}, T: 0},
		{P: geo.Point{X: 10, Y: 0}, T: 10},
	}
	if got := tr.At(5); !almostEqual(got.X, 5, 1e-9) {
		t.Errorf("At(5) = %v, want x=5", got)
	}
	if got := tr.At(-5); got != (geo.Point{X: 0, Y: 0}) {
		t.Errorf("At before start = %v, want clamp to first", got)
	}
	if got := tr.At(99); got != (geo.Point{X: 10, Y: 0}) {
		t.Errorf("At after end = %v, want clamp to last", got)
	}
	var empty Trajectory
	if got := empty.At(1); got != (geo.Point{}) {
		t.Errorf("At on empty = %v, want zero", got)
	}
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFilterNoiseRemovesSpike(t *testing.T) {
	// A single fix 1 km away implies an impossible speed and must go. The
	// other three fixes span 30 s inside a 20 m disc, so they make one stay
	// exactly when the spike does not break the disc.
	tr := Trajectory{
		{P: geo.Point{X: 0, Y: 0}, T: 0},
		{P: geo.Point{X: 10, Y: 0}, T: 10},
		{P: geo.Point{X: 1000, Y: 0}, T: 20}, // spike: 99 m/s
		{P: geo.Point{X: 20, Y: 0}, T: 30},
	}
	if n := acceptedCount(tr, DefaultNoiseFilter()); n != 3 {
		t.Fatalf("Accepted() = %d, want 3", n)
	}
	got := ExtractStayPoints(tr, DefaultNoiseFilter(), DefaultStayPointConfig())
	want := StayPoint{Loc: geo.Point{X: 10, Y: 0}, ArriveT: 0, LeaveT: 30, NPoints: 3}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("stays = %+v, want [%+v]: the spike survived the filter", got, want)
	}
}

func TestFilterNoiseKeepsCleanTrajectory(t *testing.T) {
	tr := walk(geo.Point{X: 0, Y: 0}, geo.Point{X: 500, Y: 0}, 5, 13.5, 0)
	if n := acceptedCount(tr, DefaultNoiseFilter()); n != len(tr) {
		t.Errorf("clean trajectory lost points: %d -> %d", len(tr), n)
	}
}

func TestFilterNoiseReanchorsAfterBadStart(t *testing.T) {
	// The first fix is the outlier; the rest is a consistent cluster. After
	// one rejection the filter should re-anchor onto the consistent fixes
	// and keep them all; without re-anchoring only the first fix survives.
	tr := Trajectory{
		{P: geo.Point{X: 5000, Y: 5000}, T: 0},
		{P: geo.Point{X: 0, Y: 0}, T: 10},
		{P: geo.Point{X: 5, Y: 0}, T: 20},
		{P: geo.Point{X: 10, Y: 0}, T: 30},
	}
	if n := acceptedCount(tr, DefaultNoiseFilter()); n != len(tr) {
		t.Fatalf("Accepted() = %d, want %d: the filter dropped the consistent cluster", n, len(tr))
	}
}

func TestFilterNoiseDropsDuplicateTimestamps(t *testing.T) {
	tr := Trajectory{
		{P: geo.Point{X: 0, Y: 0}, T: 0},
		{P: geo.Point{X: 1, Y: 0}, T: 0.2}, // within MinInterval
		{P: geo.Point{X: 2, Y: 0}, T: 10},
	}
	if n := acceptedCount(tr, DefaultNoiseFilter()); n != 2 {
		t.Errorf("Accepted() = %d, want 2", n)
	}
}

func TestFilterNoiseEmpty(t *testing.T) {
	if n := acceptedCount(nil, DefaultNoiseFilter()); n != 0 {
		t.Errorf("Accepted() on an empty trip = %d, want 0", n)
	}
	if got := ExtractStayPoints(nil, DefaultNoiseFilter(), DefaultStayPointConfig()); got != nil {
		t.Errorf("ExtractStayPoints(nil) = %v, want nil", got)
	}
}

func TestDetectStayPointsBasic(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	// Walk, dwell 120 s, walk: exactly one stay point at the dwell site.
	p1 := walk(geo.Point{X: 0, Y: 0}, geo.Point{X: 200, Y: 0}, 5, 10, 0)
	t1 := p1[len(p1)-1].T
	d := dwell(geo.Point{X: 200, Y: 0}, 120, 10, t1+10, r)
	t2 := d[len(d)-1].T
	p2 := walk(geo.Point{X: 200, Y: 0}, geo.Point{X: 400, Y: 0}, 5, 10, t2+10)
	tr := concat(p1, d, p2)

	sps := ExtractStayPoints(tr, DefaultNoiseFilter(), DefaultStayPointConfig())
	if len(sps) != 1 {
		t.Fatalf("got %d stay points, want 1: %+v", len(sps), sps)
	}
	sp := sps[0]
	if geo.Dist(sp.Loc, geo.Point{X: 200, Y: 0}) > 10 {
		t.Errorf("stay point at %v, want near (200,0)", sp.Loc)
	}
	if sp.Duration() < 100 {
		t.Errorf("stay duration = %v, want >= 100", sp.Duration())
	}
	if sp.MidT() <= sp.ArriveT || sp.MidT() >= sp.LeaveT {
		t.Errorf("MidT %v outside [%v, %v]", sp.MidT(), sp.ArriveT, sp.LeaveT)
	}
}

func TestDetectStayPointsTooShort(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	// 20-second dwell is under TMin=30: no stay point.
	d := dwell(geo.Point{X: 50, Y: 50}, 20, 5, 0, r)
	if sps := ExtractStayPoints(d, DefaultNoiseFilter(), DefaultStayPointConfig()); len(sps) != 0 {
		t.Errorf("got %d stay points for a 20s dwell, want 0", len(sps))
	}
}

func TestDetectStayPointsMovingCourier(t *testing.T) {
	tr := walk(geo.Point{X: 0, Y: 0}, geo.Point{X: 1000, Y: 0}, 5, 13.5, 0)
	if sps := ExtractStayPoints(tr, DefaultNoiseFilter(), DefaultStayPointConfig()); len(sps) != 0 {
		t.Errorf("moving courier produced %d stay points, want 0", len(sps))
	}
}

func TestDetectStayPointsMultiple(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var parts []Trajectory
	t0 := 0.0
	stops := []geo.Point{{X: 100, Y: 0}, {X: 300, Y: 100}, {X: 500, Y: 0}}
	prev := geo.Point{X: 0, Y: 0}
	for _, s := range stops {
		w := walk(prev, s, 5, 10, t0)
		t0 = w[len(w)-1].T + 10
		d := dwell(s, 90, 10, t0, r)
		t0 = d[len(d)-1].T + 10
		parts = append(parts, w, d)
		prev = s
	}
	tr := concat(parts...)
	sps := ExtractStayPoints(tr, DefaultNoiseFilter(), DefaultStayPointConfig())
	if len(sps) != len(stops) {
		t.Fatalf("got %d stay points, want %d", len(sps), len(stops))
	}
	for i, sp := range sps {
		if geo.Dist(sp.Loc, stops[i]) > 10 {
			t.Errorf("stay %d at %v, want near %v", i, sp.Loc, stops[i])
		}
	}
}

func TestDetectStayPointsNonOverlappingProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random alternation of walks and dwells.
		var parts []Trajectory
		t0, prev := 0.0, geo.Point{X: 0, Y: 0}
		for i := 0; i < 5; i++ {
			next := geo.Point{X: r.Float64() * 500, Y: r.Float64() * 500}
			w := walk(prev, next, 3+r.Float64()*5, 10, t0)
			t0 = w[len(w)-1].T + 10
			d := dwell(next, 20+r.Float64()*200, 10, t0, r)
			t0 = d[len(d)-1].T + 10
			parts = append(parts, w, d)
			prev = next
		}
		sps := ExtractStayPoints(concat(parts...), DefaultNoiseFilter(), DefaultStayPointConfig())
		for i := 1; i < len(sps); i++ {
			if sps[i].ArriveT < sps[i-1].LeaveT {
				return false
			}
		}
		for _, sp := range sps {
			if sp.Duration() < DefaultStayPointConfig().TMin {
				return false
			}
			if sp.NPoints < 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDetectStayPointsInvalidConfigFallsBack(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	d := dwell(geo.Point{X: 10, Y: 10}, 120, 10, 0, r)
	sps := ExtractStayPoints(d, NoiseFilterConfig{}, StayPointConfig{})
	if len(sps) != 1 {
		t.Errorf("zero config should fall back to defaults, got %d stay points", len(sps))
	}
}

func TestExtractStayPointsFiltersNoiseFirst(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	d := dwell(geo.Point{X: 100, Y: 100}, 120, 10, 0, r)
	// Inject a spike in the middle of the dwell that would otherwise split
	// the stay point.
	tr := make(Trajectory, 0, len(d)+1)
	tr = append(tr, d[:len(d)/2]...)
	tr = append(tr, GPSPoint{P: geo.Point{X: 9000, Y: 9000}, T: d[len(d)/2-1].T + 5})
	// Shift the remainder by 10 s to keep timestamps increasing.
	for _, p := range d[len(d)/2:] {
		p.T += 10
		tr = append(tr, p)
	}
	sps := ExtractStayPoints(tr, DefaultNoiseFilter(), DefaultStayPointConfig())
	if len(sps) != 1 {
		t.Fatalf("got %d stay points, want 1 (noise filter should remove the spike)", len(sps))
	}
	if geo.Dist(sps[0].Loc, geo.Point{X: 100, Y: 100}) > 10 {
		t.Errorf("stay point at %v, want near (100,100)", sps[0].Loc)
	}
}
