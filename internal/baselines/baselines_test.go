package baselines

import (
	"context"
	"math"
	"testing"

	"dlinfma/internal/core"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/synth"
)

var testEnv struct {
	env   *Env
	ds    *model.Dataset
	w     *synth.World
	split synth.Split
}

func env(t *testing.T) *Env {
	t.Helper()
	if testEnv.env == nil {
		ds, w, err := synth.Generate(synth.Tiny())
		if err != nil {
			t.Fatal(err)
		}
		testEnv.ds, testEnv.w = ds, w
		testEnv.split = synth.SplitSpatial(ds, w, 0.6, 0.2)
		e, err := NewEnv(context.Background(), ds, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		testEnv.env = e
	}
	return testEnv.env
}

// anyDeliveredAddr returns an address that appears in some trip.
func anyDeliveredAddr(t *testing.T, e *Env) model.AddressID {
	t.Helper()
	for _, tr := range e.DS.Trips {
		if len(tr.Waybills) > 0 {
			return tr.Waybills[0].Addr
		}
	}
	t.Fatal("no delivered address")
	return 0
}

func TestAnnotationsComputedFromRecordedTimes(t *testing.T) {
	e := env(t)
	anns := e.Annotations()
	if len(anns) == 0 {
		t.Fatal("no annotations")
	}
	total := 0
	for _, as := range anns {
		total += len(as)
	}
	if total != e.DS.Deliveries() {
		t.Errorf("annotations %d != waybills %d", total, e.DS.Deliveries())
	}
	// Annotated location equals the trajectory position at the recorded
	// time for a sampled trip.
	tr := e.DS.Trips[0]
	w := tr.Waybills[0]
	want := tr.Traj.At(w.RecordedDeliveryT)
	found := false
	for _, a := range anns[w.Addr] {
		if a.T == w.RecordedDeliveryT && a.Loc == want {
			found = true
		}
	}
	if !found {
		t.Error("annotation for first waybill not found at recorded time")
	}
}

func TestSimpleBaselinesPredict(t *testing.T) {
	e := env(t)
	addr := anyDeliveredAddr(t, e)
	for _, m := range []Method{Geocoding{}, Annotation{}, GeoCloud{}, MinDist{}, MaxTC{}, MaxTCILC{}} {
		if err := m.Fit(context.Background(), e, testEnv.split.Train, testEnv.split.Val); err != nil {
			t.Fatalf("%s fit: %v", m.Name(), err)
		}
		p, ok := m.Predict(e, addr)
		if !ok {
			t.Fatalf("%s: no prediction for delivered address", m.Name())
		}
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			t.Fatalf("%s: NaN prediction", m.Name())
		}
	}
}

func TestSimpleBaselinesUnknownAddress(t *testing.T) {
	e := env(t)
	const unknown = model.AddressID(999999)
	for _, m := range []Method{Annotation{}, GeoCloud{}, MinDist{}, MaxTC{}, MaxTCILC{}} {
		if _, ok := m.Predict(e, unknown); ok {
			t.Errorf("%s predicted for unknown address", m.Name())
		}
	}
}

func TestMinDistPicksNearestCandidate(t *testing.T) {
	e := env(t)
	addr := anyDeliveredAddr(t, e)
	s := e.Samples(core.DefaultSampleOptions(), false)[addr]
	if s == nil {
		t.Skip("address has no sample")
	}
	p, ok := MinDist{}.Predict(e, addr)
	if !ok {
		t.Fatal("no prediction")
	}
	for _, c := range s.Cands {
		if geo.Dist(c.Loc, s.Geocode) < geo.Dist(p, s.Geocode)-1e-9 {
			t.Fatal("MinDist did not pick the nearest candidate")
		}
	}
}

func TestGeoRankFitAndPredict(t *testing.T) {
	e := env(t)
	g := &GeoRank{}
	if err := g.Fit(context.Background(), e, testEnv.split.Train, testEnv.split.Val); err != nil {
		t.Fatal(err)
	}
	hits, total := 0, 0
	for _, addr := range testEnv.split.Test {
		truth, ok := e.DS.Truth[addr]
		if !ok {
			continue
		}
		p, ok := g.Predict(e, addr)
		if !ok {
			continue
		}
		total++
		if geo.Dist(p, truth) < 50 {
			hits++
		}
	}
	if total == 0 {
		t.Fatal("no predictions")
	}
	if frac := float64(hits) / float64(total); frac < 0.3 {
		t.Errorf("GeoRank within-50m rate %.2f too low", frac)
	}
}

func TestUNetRasterGeometry(t *testing.T) {
	e := env(t)
	u := &UNetBased{}
	addr := anyDeliveredAddr(t, e)
	r, ok := u.rasterize(e, addr)
	if !ok {
		t.Fatal("no raster")
	}
	// Image is normalized to [0,1] with at least one 1.
	maxV := 0.0
	for _, v := range r.img {
		if v < 0 || v > 1 {
			t.Fatalf("pixel value %v out of range", v)
		}
		if v > maxV {
			maxV = v
		}
	}
	if maxV != 1 {
		t.Errorf("max pixel %v, want 1", maxV)
	}
	// pixelOf and pixelCenter are inverse-consistent.
	for _, idx := range []int{0, 40, 80} {
		c := u.pixelCenter(r, idx)
		if got := u.pixelOf(r, c); got != idx {
			t.Errorf("pixelOf(pixelCenter(%d)) = %d", idx, got)
		}
	}
	// A point far outside the window maps to -1.
	far := geo.Point{X: r.originX - 1000, Y: r.originY}
	if u.pixelOf(r, far) != -1 {
		t.Error("far point mapped inside the window")
	}
}

func TestUNetTrainsAndPredicts(t *testing.T) {
	e := env(t)
	u := &UNetBased{Epochs: 4, Patience: 2}
	if err := u.Fit(context.Background(), e, testEnv.split.Train, testEnv.split.Val); err != nil {
		t.Fatal(err)
	}
	addr := anyDeliveredAddr(t, e)
	p, ok := u.Predict(e, addr)
	if !ok {
		t.Fatal("no prediction")
	}
	// The prediction is a pixel center inside the address's 9x9 window.
	r, _ := u.rasterize(e, addr)
	if u.pixelOf(r, p) < 0 {
		t.Error("prediction outside the raster window")
	}
}

func TestClassifierVariants(t *testing.T) {
	e := env(t)
	for _, kind := range []ClassifierKind{KindGBDT, KindMLP} { // RF is slow; covered below
		c := &Classifier{Kind: kind}
		if err := c.Fit(context.Background(), e, testEnv.split.Train, testEnv.split.Val); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		addr := anyDeliveredAddr(t, e)
		if _, ok := c.Predict(e, addr); !ok {
			t.Fatalf("%s: no prediction", c.Name())
		}
	}
}

func TestRandomForestVariantSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("RF variant is slow")
	}
	e := env(t)
	c := &Classifier{Kind: KindRF}
	if err := c.Fit(context.Background(), e, testEnv.split.Train[:min(40, len(testEnv.split.Train))], nil); err != nil {
		t.Fatal(err)
	}
	if c.Name() != "DLInfMA-RF" {
		t.Errorf("name %q", c.Name())
	}
	addr := anyDeliveredAddr(t, e)
	if _, ok := c.Predict(e, addr); !ok {
		t.Fatal("no prediction")
	}
}

func TestPairwiseRankers(t *testing.T) {
	e := env(t)
	for _, kind := range []RankKind{RankDT, RankNet} {
		r := &PairwiseRanker{Kind: kind}
		if err := r.Fit(context.Background(), e, testEnv.split.Train, testEnv.split.Val); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		addr := anyDeliveredAddr(t, e)
		if _, ok := r.Predict(e, addr); !ok {
			t.Fatalf("%s: no prediction", r.Name())
		}
	}
}

func TestDLInfMAVariantsConstructible(t *testing.T) {
	for _, name := range AllVariantNames() {
		m, err := Variant(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("Variant(%q).Name() = %q", name, m.Name())
		}
	}
	if _, err := Variant("nonsense"); err == nil {
		t.Error("expected error for unknown variant")
	}
}

func TestAblationMasks(t *testing.T) {
	cases := map[string]func(*DLInfMA) bool{
		"DLInfMA-nTC":    func(d *DLInfMA) bool { return !d.Opt.Mask.TC },
		"DLInfMA-nD":     func(d *DLInfMA) bool { return !d.Opt.Mask.Dist },
		"DLInfMA-nP":     func(d *DLInfMA) bool { return !d.Opt.Mask.Profile },
		"DLInfMA-nLC":    func(d *DLInfMA) bool { return !d.Opt.Mask.LC },
		"DLInfMA-nA":     func(d *DLInfMA) bool { return d.Model.NoContext },
		"DLInfMA-LCaddr": func(d *DLInfMA) bool { return d.Opt.LCPerAddress },
	}
	for name, check := range cases {
		d, err := Ablation(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !check(d) {
			t.Errorf("%s: option not applied", name)
		}
	}
}

func TestDLInfMAEndToEnd(t *testing.T) {
	e := env(t)
	d := NewDLInfMA()
	d.Model.MaxEpochs = 10
	d.Model.LR = 1e-3
	if err := d.Fit(context.Background(), e, testEnv.split.Train, testEnv.split.Val); err != nil {
		t.Fatal(err)
	}
	addr := anyDeliveredAddr(t, e)
	if _, ok := d.Predict(e, addr); !ok {
		t.Fatal("no prediction")
	}
	// Unknown address: no prediction.
	if _, ok := d.Predict(e, model.AddressID(999999)); ok {
		t.Error("predicted for unknown address")
	}
}

func TestEnvSampleCaching(t *testing.T) {
	e := env(t)
	a := e.Samples(core.DefaultSampleOptions(), false)
	b := e.Samples(core.DefaultSampleOptions(), false)
	if len(a) == 0 {
		t.Fatal("no samples")
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatal("sample cache returned different objects")
		}
		break
	}
	// Different options are cached separately.
	opt := core.DefaultSampleOptions()
	opt.Mask.TC = false
	c := e.Samples(opt, false)
	for k, s := range a {
		if c[k] == s {
			t.Fatal("different options share cache entries")
		}
		break
	}
}
