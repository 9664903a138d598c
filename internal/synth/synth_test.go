package synth

import (
	"math"
	"sort"
	"testing"

	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/traj"
)

func TestProfileValidation(t *testing.T) {
	if err := DowBJ().Validate(); err != nil {
		t.Errorf("DowBJ invalid: %v", err)
	}
	if err := SubBJ().Validate(); err != nil {
		t.Errorf("SubBJ invalid: %v", err)
	}
	bad := DowBJ()
	bad.PDoorstep = 0.9 // preferences no longer sum to 1
	if err := bad.Validate(); err == nil {
		t.Error("expected validation error for bad preferences")
	}
	bad = DowBJ()
	bad.NCouriers = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected validation error for zero couriers")
	}
}

func TestBuildWorldStructure(t *testing.T) {
	w, err := BuildWorld(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	p := Tiny()
	if len(w.Buildings) != p.NBuildings {
		t.Errorf("got %d buildings, want %d", len(w.Buildings), p.NBuildings)
	}
	if len(w.Addresses) < p.NBuildings*p.MinAddrPerBuilding {
		t.Errorf("too few addresses: %d", len(w.Addresses))
	}
	// Every address has ground truth and a geocode within the (expanded)
	// region.
	region := geo.Rect{MinX: -400, MinY: -400, MaxX: p.Extent + 400, MaxY: p.Extent + 400}
	for _, a := range w.Addresses {
		truth, ok := w.Truth[a.ID]
		if !ok {
			t.Fatalf("address %d has no ground truth", a.ID)
		}
		if !region.Contains(truth) || !region.Contains(a.Geocode) {
			t.Errorf("address %d outside region: truth=%v geocode=%v", a.ID, truth, a.Geocode)
		}
		if !a.POI.Valid() {
			t.Errorf("address %d has invalid POI %d", a.ID, a.POI)
		}
	}
	// Communities must reference their buildings consistently.
	for ci, c := range w.Communities {
		for _, b := range c.Buildings {
			if w.Buildings[b].Community != ci {
				t.Errorf("building %d community backref broken", b)
			}
		}
		if c.Sibling == ci {
			t.Errorf("community %d is its own sibling", ci)
		}
	}
}

func TestWorldHasAllThreeDeliveryKinds(t *testing.T) {
	w, err := BuildWorld(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[DeliveryKind]int{}
	for _, k := range w.TruthKind {
		counts[k]++
	}
	for _, k := range []DeliveryKind{KindDoorstep, KindLocker, KindReception} {
		if counts[k] == 0 {
			t.Errorf("no addresses with kind %v", k)
		}
	}
	if counts[KindDoorstep] <= counts[KindLocker] {
		t.Errorf("doorstep should dominate: %v", counts)
	}
}

func TestBuildingsShareDifferentDeliveryLocations(t *testing.T) {
	// Figure 9(a): a substantial share of buildings has addresses with more
	// than one distinct delivery location.
	w, err := BuildWorld(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	multi, total := 0, 0
	for _, addrs := range w.addrsOfBld {
		if len(addrs) < 2 {
			continue
		}
		total++
		locs := map[geo.Point]bool{}
		for _, a := range addrs {
			locs[w.Truth[a]] = true
		}
		if len(locs) > 1 {
			multi++
		}
	}
	if total == 0 || float64(multi)/float64(total) < 0.1 {
		t.Errorf("only %d/%d multi-location buildings; expected >= 10%%", multi, total)
	}
}

func TestGeocodeErrorModesPresent(t *testing.T) {
	w, err := BuildWorld(DowBJ())
	if err != nil {
		t.Fatal(err)
	}
	modes := map[string]int{}
	for _, a := range w.Addresses {
		modes[a.GeocodeMode.String()]++
	}
	for _, m := range []string{"accurate", "coarse-poi", "wrong-parse"} {
		if modes[m] == 0 {
			t.Errorf("no addresses with geocode mode %s (got %v)", m, modes)
		}
	}
	// Wrong parses should be large errors on average.
	var wrongSum, accSum float64
	var wrongN, accN int
	for _, a := range w.Addresses {
		d := geo.Dist(a.Geocode, w.Buildings[a.Building].Center)
		switch a.GeocodeMode.String() {
		case "wrong-parse":
			wrongSum += d
			wrongN++
		case "accurate":
			accSum += d
			accN++
		}
	}
	if wrongN > 0 && accN > 0 && wrongSum/float64(wrongN) < 2*accSum/float64(accN) {
		t.Errorf("wrong-parse mean error %.0f not much larger than accurate %.0f",
			wrongSum/float64(wrongN), accSum/float64(accN))
	}
}

func TestGenerateCleanDataset(t *testing.T) {
	ds, w, err := GenerateClean(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatalf("dataset invalid: %v", err)
	}
	if len(ds.Trips) == 0 || ds.Deliveries() == 0 {
		t.Fatal("empty dataset")
	}
	// No batch delays: recorded = actual + organic lag only.
	for _, tr := range ds.Trips {
		for _, wb := range tr.Waybills {
			if wb.RecordedDeliveryT != wb.ActualDeliveryT+wb.ConfirmLag {
				t.Fatal("clean dataset has batch delays")
			}
			if wb.ConfirmLag < 0 || wb.ConfirmLag > 120 {
				t.Errorf("confirm lag %v out of [0,120]", wb.ConfirmLag)
			}
			if wb.ActualDeliveryT < tr.StartT || wb.ActualDeliveryT > tr.EndT {
				t.Errorf("delivery time outside trip: %v not in [%v,%v]", wb.ActualDeliveryT, tr.StartT, tr.EndT)
			}
		}
	}
	_ = w
}

func TestTrajectoriesPassNearDeliveryLocations(t *testing.T) {
	// The courier must actually dwell at each waybill's true delivery
	// location around the actual delivery time.
	ds, w, err := GenerateClean(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, tr := range ds.Trips[:min(10, len(ds.Trips))] {
		for _, wb := range tr.Waybills {
			truth := w.Truth[wb.Addr]
			// Median fix distance over the dwell window is robust to the
			// injected GPS outliers.
			window := tr.Traj.Slice(wb.ActualDeliveryT-35, wb.ActualDeliveryT)
			if len(window) == 0 {
				t.Fatalf("no fixes in dwell window of waybill for %d", wb.Addr)
			}
			var ds []float64
			for _, p := range window {
				ds = append(ds, geo.Dist(p.P, truth))
			}
			sort.Float64s(ds)
			if med := ds[len(ds)/2]; med > 40 {
				t.Errorf("courier median %.0f m from delivery location during dwell", med)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no waybills checked")
	}
}

func TestStayPointsMatchDeliveries(t *testing.T) {
	// Stay-point extraction on a simulated trip finds a stay near most
	// delivery locations — the core premise of the paper.
	ds, w, err := GenerateClean(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	tr := ds.Trips[0]
	sps := traj.ExtractStayPoints(tr.Traj, traj.DefaultNoiseFilter(), traj.DefaultStayPointConfig())
	if len(sps) < len(tr.Waybills)/2 {
		t.Fatalf("only %d stay points for %d waybills", len(sps), len(tr.Waybills))
	}
	found := 0
	for _, wb := range tr.Waybills {
		truth := w.Truth[wb.Addr]
		for _, sp := range sps {
			if geo.Dist(sp.Loc, truth) < 30 {
				found++
				break
			}
		}
	}
	if frac := float64(found) / float64(len(tr.Waybills)); frac < 0.7 {
		t.Errorf("stay points cover only %.0f%% of deliveries", frac*100)
	}
}

func TestInjectDelays(t *testing.T) {
	ds, _, err := GenerateClean(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, pd := range []float64{0, 0.3, 1.0} {
		inj := InjectDelays(ds, pd, 2, 99)
		if err := inj.Validate(); err != nil {
			t.Fatalf("pd=%v: %v", pd, err)
		}
		st := MeasureDelays(inj)
		frac := float64(st.Delayed) / float64(st.Waybills)
		switch {
		case pd == 0 && st.Delayed != 0:
			t.Errorf("pd=0 delayed %d waybills", st.Delayed)
		case pd == 0.3 && (frac < 0.1 || frac > 0.5):
			t.Errorf("pd=0.3 delayed fraction %.2f out of expected band", frac)
		case pd == 1.0 && frac < 0.5:
			// With 2 batches, roughly everything except batch-final stops is
			// delayed.
			t.Errorf("pd=1.0 delayed fraction %.2f too low", frac)
		}
		// Delays never decrease recorded times, and originals are untouched.
		for ti, tr := range inj.Trips {
			for wi, wb := range tr.Waybills {
				if wb.RecordedDeliveryT < wb.ActualDeliveryT {
					t.Fatal("recorded before actual after injection")
				}
				orig := ds.Trips[ti].Waybills[wi]
				if orig.RecordedDeliveryT != orig.ActualDeliveryT+orig.ConfirmLag {
					t.Fatal("injection mutated the source dataset")
				}
			}
		}
	}
}

func TestInjectDelaysIdempotentOnReinjection(t *testing.T) {
	// Injection resets to actual times first, so re-injecting a delayed
	// dataset equals injecting the clean one.
	ds, _, err := GenerateClean(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	a := InjectDelays(ds, 0.6, 2, 5)
	b := InjectDelays(InjectDelays(ds, 1.0, 2, 123), 0.6, 2, 5)
	for ti := range a.Trips {
		for wi := range a.Trips[ti].Waybills {
			if a.Trips[ti].Waybills[wi].RecordedDeliveryT != b.Trips[ti].Waybills[wi].RecordedDeliveryT {
				t.Fatal("re-injection differs from clean injection")
			}
		}
	}
}

func TestGenerateAppliesProfileDelays(t *testing.T) {
	ds, _, err := Generate(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	st := MeasureDelays(ds)
	if st.Delayed == 0 {
		t.Error("profile delays not applied")
	}
	if st.MeanDelaySec <= 0 {
		t.Error("mean delay should be positive")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, _, _ := Generate(Tiny())
	b, _, _ := Generate(Tiny())
	if len(a.Trips) != len(b.Trips) || a.Deliveries() != b.Deliveries() {
		t.Fatal("generation is nondeterministic in structure")
	}
	for i := range a.Trips {
		if len(a.Trips[i].Traj) != len(b.Trips[i].Traj) {
			t.Fatal("trajectory lengths differ")
		}
		if a.Trips[i].Traj[0] != b.Trips[i].Traj[0] {
			t.Fatal("trajectories differ")
		}
	}
}

func TestSplitSpatialDisjointAndComplete(t *testing.T) {
	ds, w, err := GenerateClean(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	s := SplitSpatial(ds, w, 0.6, 0.2)
	seen := make(map[model.AddressID]int)
	for _, id := range s.Train {
		seen[id]++
	}
	for _, id := range s.Val {
		seen[id]++
	}
	for _, id := range s.Test {
		seen[id]++
	}
	if len(seen) != len(ds.Addresses) {
		t.Errorf("split covers %d addresses, want %d", len(seen), len(ds.Addresses))
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("address %d appears in %d splits", id, c)
		}
	}
	if len(s.Train) == 0 || len(s.Val) == 0 || len(s.Test) == 0 {
		t.Errorf("empty split: train=%d val=%d test=%d", len(s.Train), len(s.Val), len(s.Test))
	}
	// Buildings are never split across sets.
	bySplit := make(map[model.BuildingID]string)
	check := func(ids []model.AddressID, name string) {
		for _, id := range ids {
			a, _ := ds.AddressByID(id)
			if prev, ok := bySplit[a.Building]; ok && prev != name {
				t.Fatalf("building %d split across %s and %s", a.Building, prev, name)
			}
			bySplit[a.Building] = name
		}
	}
	check(s.Train, "train")
	check(s.Val, "val")
	check(s.Test, "test")
}

func TestDeliveriesPerAddressHeavyTail(t *testing.T) {
	// Figure 9(b): some addresses have many deliveries, the median is small.
	ds, _, err := GenerateClean(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[model.AddressID]int{}
	for _, tr := range ds.Trips {
		for _, wb := range tr.Waybills {
			counts[wb.Addr]++
		}
	}
	maxC := 0
	var sum int
	for _, c := range counts {
		sum += c
		if c > maxC {
			maxC = c
		}
	}
	mean := float64(sum) / float64(len(counts))
	if float64(maxC) < 3*mean {
		t.Errorf("no heavy tail: max=%d mean=%.1f", maxC, mean)
	}
}

func TestGPSNoiseMagnitude(t *testing.T) {
	// Fixes should deviate from the dwell centroid on the order of GPSSigma,
	// not wildly more (excluding injected outliers).
	ds, w, err := GenerateClean(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	tr := ds.Trips[0]
	wb := tr.Waybills[0]
	truth := w.Truth[wb.Addr]
	var devs []float64
	for _, p := range tr.Traj.Slice(wb.ActualDeliveryT-40, wb.ActualDeliveryT) {
		devs = append(devs, geo.Dist(p.P, truth))
	}
	if len(devs) == 0 {
		t.Skip("no fixes in dwell window")
	}
	var med float64
	for _, d := range devs {
		med += d
	}
	med /= float64(len(devs))
	if med > 6*Tiny().GPSSigma+10 {
		t.Errorf("median dwell deviation %.1f m too large", med)
	}
	_ = math.Pi
}

func TestZoneAccessors(t *testing.T) {
	w, err := BuildWorld(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if w.NZones() != Tiny().NCouriers {
		t.Fatalf("NZones = %d, want %d", w.NZones(), Tiny().NCouriers)
	}
	// Every building belongs to exactly one zone, consistent with the zone
	// address lists used for trip sampling.
	counts := make([]int, w.NZones())
	for _, b := range w.Buildings {
		z := w.ZoneOfBuilding(b.ID)
		if z < 0 || z >= w.NZones() {
			t.Fatalf("building %d in zone %d", b.ID, z)
		}
		counts[z]++
	}
	total := 0
	for z, c := range counts {
		if c == 0 {
			t.Errorf("zone %d empty", z)
		}
		total += c
	}
	if total != len(w.Buildings) {
		t.Errorf("zones cover %d of %d buildings", total, len(w.Buildings))
	}
	for _, a := range w.Addresses {
		z, ok := w.ZoneOfAddress(a.ID)
		if !ok || z != w.ZoneOfBuilding(a.Building) {
			t.Fatalf("address %d zone %d (ok=%v), building zone %d", a.ID, z, ok, w.ZoneOfBuilding(a.Building))
		}
	}
	if _, ok := w.ZoneOfAddress(model.AddressID(len(w.Addresses) + 5)); ok {
		t.Error("unknown address reported a zone")
	}
	if w.ZoneOfBuilding(model.BuildingID(len(w.Buildings))) != -1 {
		t.Error("unknown building reported a zone")
	}
	for z := 0; z < w.NZones(); z++ {
		if _, ok := w.Station(z); !ok {
			t.Errorf("no station for zone %d", z)
		}
	}
	if _, ok := w.Station(w.NZones()); ok {
		t.Error("station for out-of-range zone")
	}
}

// TestAlignZonesToCommunities: with the option on, every community's
// buildings land in one zone, so no locker or reception serves two zones.
func TestAlignZonesToCommunities(t *testing.T) {
	p := Tiny()
	p.AlignZonesToCommunities = true
	w, err := BuildWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	for ci, c := range w.Communities {
		if len(c.Buildings) == 0 {
			continue
		}
		z0 := w.ZoneOfBuilding(model.BuildingID(c.Buildings[0]))
		for _, b := range c.Buildings[1:] {
			if z := w.ZoneOfBuilding(model.BuildingID(b)); z != z0 {
				t.Errorf("community %d split across zones %d and %d", ci, z0, z)
			}
		}
	}
	// The default layout is untouched by the new field: same zones as before.
	base, err := BuildWorld(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if base.NZones() != Tiny().NCouriers {
		t.Fatalf("default NZones = %d", base.NZones())
	}
}
