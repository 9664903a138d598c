package eval

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"dlinfma/internal/baselines"
	"dlinfma/internal/core"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/synth"
	"dlinfma/internal/traj"
)

func TestMetrics(t *testing.T) {
	errs := []float64{10, 20, 30, 40, 100}
	m := Compute(errs)
	if m.MAE != 40 {
		t.Errorf("MAE = %v, want 40", m.MAE)
	}
	if m.P95 != 100 {
		t.Errorf("P95 = %v, want 100", m.P95)
	}
	if m.Beta50 != 80 {
		t.Errorf("Beta50 = %v, want 80", m.Beta50)
	}
	if m.N != 5 {
		t.Errorf("N = %d, want 5", m.N)
	}
}

func TestMetricsEmpty(t *testing.T) {
	m := Compute(nil)
	if !math.IsNaN(m.MAE) || !math.IsNaN(m.P95) || m.Beta50 != 0 || m.N != 0 {
		t.Errorf("empty metrics = %+v", m)
	}
}

func TestPercentile(t *testing.T) {
	errs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(errs, 0.5); p != 5 {
		t.Errorf("P50 = %v, want 5", p)
	}
	if p := Percentile(errs, 0.95); p != 10 {
		t.Errorf("P95 = %v, want 10", p)
	}
	if p := Percentile(errs, 0.01); p != 1 {
		t.Errorf("P1 = %v, want 1", p)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("empty percentile should be NaN")
	}
}

func TestBetaDelta(t *testing.T) {
	errs := []float64{10, 50, 60}
	if b := BetaDelta(errs, 50); math.Abs(b-100.0/3) > 1e-9 {
		t.Errorf("BetaDelta(50) = %v (exactly-50 must not count)", b)
	}
	if b := BetaDelta(nil, 50); b != 0 {
		t.Errorf("BetaDelta(empty) = %v", b)
	}
}

// tinyPrep memoizes a small prepared dataset for the experiment tests.
var tinyPrep *Prepared

func prep(t *testing.T) *Prepared {
	t.Helper()
	if tinyPrep == nil {
		p, err := Prepare(context.Background(), synth.Tiny(), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		tinyPrep = p
	}
	return tinyPrep
}

// tinyTable2 memoizes the Tiny Table II rows: two tests read the same
// EvaluateAll, the costliest call in the package.
var tinyTable2 []MethodResult

func table2Rows(t *testing.T) []MethodResult {
	t.Helper()
	if tinyTable2 == nil {
		p := prep(t)
		tinyTable2 = EvaluateAll(context.Background(), p.Env, Table2Methods(), p.Split.Train, p.Split.Val, p.Split.Test)
	}
	return tinyTable2
}

func TestTable1(t *testing.T) {
	row := Table1(prep(t))
	if row.Trips == 0 || row.Waybills == 0 || row.Addresses == 0 || row.TrajPoints == 0 {
		t.Fatalf("zero counts: %+v", row)
	}
	if row.TrainAddrs+row.ValAddrs+row.TestAddrs != row.Addresses {
		t.Errorf("split does not partition addresses: %+v", row)
	}
	if row.DelayedFraction <= 0 || row.DelayedFraction >= 1 {
		t.Errorf("delayed fraction %v out of (0,1)", row.DelayedFraction)
	}
	var sb strings.Builder
	RenderTable1(&sb, []Table1Row{row})
	if !strings.Contains(sb.String(), "Tiny") {
		t.Error("rendered table missing dataset name")
	}
}

func TestFig9(t *testing.T) {
	r := Fig9(prep(t))
	if r.MultiLocationBuildingFraction <= 0 {
		t.Error("no multi-location buildings")
	}
	if r.MeanStayPointsPerTrip < 5 {
		t.Errorf("mean stay points per trip %v too low", r.MeanStayPointsPerTrip)
	}
	// The paper observes candidates/address exceeding stays/trip because its
	// addresses average many deliveries over 20 months; the tiny test
	// profile has a handful, so only require a healthy candidate count here
	// (the full-profile relation is exercised by the experiments binary).
	if r.MeanCandidatesPerAddr < 5 {
		t.Errorf("mean candidates/address %v too low", r.MeanCandidatesPerAddr)
	}
	// CDF must be nondecreasing and end high.
	for i := 1; i < len(r.DeliveriesCDF); i++ {
		if r.DeliveriesCDF[i] < r.DeliveriesCDF[i-1] {
			t.Fatal("CDF decreasing")
		}
	}
	var sb strings.Builder
	RenderFig9(&sb, "Tiny", r)
	if !strings.Contains(sb.String(), "stay points/trip") {
		t.Error("rendered Fig9 incomplete")
	}
}

func TestEvaluateMethodFallsBackToGeocode(t *testing.T) {
	// Geocoding never fails, so evaluate it as a sanity check: MAE must be
	// positive and finite.
	rows := table2Rows(t)
	if len(rows) == 0 {
		t.Fatal("no results")
	}
	for _, r := range rows {
		if r.N == 0 {
			t.Errorf("%s evaluated on zero addresses", r.Name)
			continue
		}
		if math.IsNaN(r.MAE) || r.MAE <= 0 {
			t.Errorf("%s MAE = %v", r.Name, r.MAE)
		}
		if r.Beta50 < 0 || r.Beta50 > 100 {
			t.Errorf("%s Beta50 = %v", r.Name, r.Beta50)
		}
		if r.P95 < r.MAE/10 {
			t.Errorf("%s P95 (%v) implausibly below MAE (%v)", r.Name, r.P95, r.MAE)
		}
	}
}

func TestComparativeShape(t *testing.T) {
	// The paper's headline comparisons that must hold in shape on the
	// synthetic data with organic delays (p_d = 0.3):
	//   - DLInfMA beats Geocoding on MAE and Beta50,
	//   - DLInfMA is the best method on Beta50,
	//   - MinDist beats Geocoding (Table II's observation).
	rows := table2Rows(t)
	byName := map[string]MethodResult{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	dl, geoc, mind := byName["DLInfMA"], byName["Geocoding"], byName["MinDist"]
	if dl.MAE >= geoc.MAE {
		t.Errorf("DLInfMA MAE %.1f not below Geocoding %.1f", dl.MAE, geoc.MAE)
	}
	if dl.Beta50 <= geoc.Beta50 {
		t.Errorf("DLInfMA Beta50 %.1f not above Geocoding %.1f", dl.Beta50, geoc.Beta50)
	}
	if mind.MAE >= geoc.MAE {
		t.Errorf("MinDist MAE %.1f not below Geocoding %.1f", mind.MAE, geoc.MAE)
	}
	best := dl
	for _, r := range rows {
		if r.Beta50 > best.Beta50 {
			best = r
		}
	}
	if best.Name != "DLInfMA" {
		t.Errorf("best Beta50 is %s (%.1f), want DLInfMA (%.1f)", best.Name, best.Beta50, dl.Beta50)
	}
}

func TestFig10bGroupsPartitionTestSet(t *testing.T) {
	p := prep(t)
	r := Fig10b(context.Background(), p)
	if len(r.Methods) != 5 {
		t.Fatalf("got %d methods, want 5", len(r.Methods))
	}
	if r.GroupBounds[0] > r.GroupBounds[1] || r.GroupBounds[1] > r.GroupBounds[2] {
		t.Errorf("group bounds not increasing: %v", r.GroupBounds)
	}
	for i, m := range r.Methods {
		for g := 0; g < 3; g++ {
			if math.IsNaN(r.MAE[i][g]) || r.MAE[i][g] < 0 {
				t.Errorf("%s group %d MAE %v", m, g, r.MAE[i][g])
			}
		}
	}
}

func TestFig13Linearity(t *testing.T) {
	p := prep(t)
	pts := Fig13(context.Background(), p, []int{200, 400})
	byMethod := map[string][]Fig13Point{}
	for _, pt := range pts {
		byMethod[pt.Method] = append(byMethod[pt.Method], pt)
	}
	if len(byMethod) < 4 {
		t.Fatalf("only %d methods measured", len(byMethod))
	}
	for m, ps := range byMethod {
		if len(ps) != 2 {
			t.Fatalf("%s measured %d sizes", m, len(ps))
		}
		if ps[1].Elapsed < ps[0].Elapsed/4 {
			t.Errorf("%s: time decreased with more addresses", m)
		}
	}
}

func TestRenderers(t *testing.T) {
	var sb strings.Builder
	RenderMethodTable(&sb, "test", []MethodResult{{Name: "X", Metrics: Compute([]float64{1, 2})}})
	RenderFig10a(&sb, "d", []Fig10aPoint{{D: 40, MAE: 12, NPoolLocs: 5}})
	RenderFig10b(&sb, "d", Fig10bResult{Methods: []string{"X"}, MAE: [][3]float64{{1, 2, 3}}})
	RenderTable3(&sb, "d", []Table3Result{{PD: 0.2}})
	RenderFig13(&sb, "d", []Fig13Point{{Method: "X", NAddresses: 10, Elapsed: 1e6}})
	out := sb.String()
	for _, want := range []string{"MAE", "Figure 10(a)", "Figure 10(b)", "Table III", "Figure 13"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestBuildingFallback(t *testing.T) {
	p := prep(t)
	r, err := BuildingFallback(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Chain.N == 0 {
		t.Fatal("no held-out addresses answered")
	}
	if r.BuildingCoverage <= 0 {
		t.Error("no building-level answers; the fallback chain is not exercised")
	}
	// Building-level answers should beat geocode fallback on MAE when both
	// have samples (the point of the building adaptation).
	if r.ByBuilding.N > 5 && r.ByGeocode.N > 5 && r.ByBuilding.MAE >= r.ByGeocode.MAE {
		t.Errorf("building-level MAE %.1f not below geocode %.1f", r.ByBuilding.MAE, r.ByGeocode.MAE)
	}
	var sb strings.Builder
	RenderBuildingFallback(&sb, "Tiny", r)
	if !strings.Contains(sb.String(), "building-level") {
		t.Error("render incomplete")
	}
}

// failingMethod always errors in Fit, exercising EvaluateAll's NaN path.
type failingMethod struct{}

func (failingMethod) Name() string { return "Failing" }
func (failingMethod) Fit(context.Context, *baselines.Env, []model.AddressID, []model.AddressID) error {
	return errFail
}
func (failingMethod) Predict(*baselines.Env, model.AddressID) (geo.Point, bool) {
	return geo.Point{}, false
}

var errFail = errors.New("nope")

func TestEvaluateAllToleratesFitFailure(t *testing.T) {
	p := prep(t)
	rows := EvaluateAll(context.Background(), p.Env, []baselines.Method{failingMethod{}, baselines.Geocoding{}},
		p.Split.Train, p.Split.Val, p.Split.Test)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if !math.IsNaN(rows[0].MAE) || rows[0].N != 0 {
		t.Errorf("failing method row = %+v, want NaN metrics", rows[0].Metrics)
	}
	if math.IsNaN(rows[1].MAE) {
		t.Error("healthy method should still evaluate")
	}
	if _, err := EvaluateMethod(context.Background(), p.Env, failingMethod{}, nil, nil, nil); err == nil {
		t.Error("EvaluateMethod should surface fit errors")
	}
}

func TestBootstrapCI(t *testing.T) {
	errs := make([]float64, 200)
	for i := range errs {
		errs[i] = float64(i % 10) // mean 4.5
	}
	lo, hi := BootstrapCI(errs, 500, 0.95, 1)
	if !(lo < 4.5 && 4.5 < hi) {
		t.Errorf("CI [%v,%v] should contain 4.5", lo, hi)
	}
	if hi-lo > 2 {
		t.Errorf("CI [%v,%v] too wide for n=200", lo, hi)
	}
	if lo, hi := BootstrapCI(nil, 100, 0.95, 1); !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Error("empty CI should be NaN")
	}
	// Degenerate parameters fall back to defaults.
	lo, hi = BootstrapCI([]float64{5, 5, 5}, 0, 2, 1)
	if lo != 5 || hi != 5 {
		t.Errorf("constant data CI = [%v,%v]", lo, hi)
	}
}

func TestStaySweep(t *testing.T) {
	p := prep(t)
	pts := StaySweep(context.Background(), p, []traj.StayPointConfig{
		{DMax: 20, TMin: 30},
		{DMax: 40, TMin: 30},
		{DMax: 20, TMin: 120},
	})
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	// Longer TMin detects fewer stays -> fewer pool locations.
	if pts[2].NPoolLocs >= pts[0].NPoolLocs {
		t.Errorf("TMin=120 pool (%d) should be smaller than TMin=30 (%d)",
			pts[2].NPoolLocs, pts[0].NPoolLocs)
	}
	for _, pt := range pts {
		if pt.NPoolLocs == 0 || math.IsNaN(pt.CeilingMAE) {
			t.Errorf("degenerate sweep point %+v", pt)
		}
		if pt.CeilingMAE > pt.HeuristicMAE+1e-9 {
			t.Errorf("ceiling %v exceeds heuristic %v", pt.CeilingMAE, pt.HeuristicMAE)
		}
	}
	var sb strings.Builder
	RenderStaySweep(&sb, "Tiny", pts)
	if !strings.Contains(sb.String(), "Dmax") {
		t.Error("render incomplete")
	}
}

func TestMethodResultCI(t *testing.T) {
	p := prep(t)
	r, err := EvaluateMethod(context.Background(), p.Env, baselines.Geocoding{}, nil, nil, p.Split.Test)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Errors) != r.N {
		t.Fatalf("retained %d errors, metrics over %d", len(r.Errors), r.N)
	}
	lo, hi := BootstrapCI(r.Errors, 1000, 0.95, 1)
	if !(lo <= r.MAE && r.MAE <= hi) {
		t.Errorf("CI [%v,%v] should contain MAE %v", lo, hi, r.MAE)
	}
}

func TestFig10aStructure(t *testing.T) {
	p := prep(t)
	pts := Fig10a(context.Background(), p, []float64{20, 60})
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	// Pool size decreases monotonically with D (the paper's observation).
	if pts[1].NPoolLocs >= pts[0].NPoolLocs {
		t.Errorf("pool size did not shrink: D=20 -> %d, D=60 -> %d",
			pts[0].NPoolLocs, pts[1].NPoolLocs)
	}
	for _, pt := range pts {
		if math.IsNaN(pt.MAE) || pt.MAE <= 0 {
			t.Errorf("bad MAE at D=%v: %v", pt.D, pt.MAE)
		}
	}
}
