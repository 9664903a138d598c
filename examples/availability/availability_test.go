package main

import (
	"testing"

	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/traj"
)

func TestAvailabilityModel(t *testing.T) {
	a := NewAvailabilityModel()
	// Deliveries at hour 10 on weekdays (days 0..4).
	for day := 0; day < 5; day++ {
		a.Observe(1, float64(day)*86400+10*3600+30)
	}
	// One weekend delivery at hour 14 (day 5).
	a.Observe(1, 5*86400+14*3600)

	if a.Deliveries(1) != 6 {
		t.Errorf("Deliveries = %v", a.Deliveries(1))
	}
	p10 := a.Probability(1, 10, 0)
	p3 := a.Probability(1, 3, 0)
	if p10 <= p3 {
		t.Errorf("P(hour 10)=%v should exceed P(hour 3)=%v", p10, p3)
	}
	pw := a.Probability(1, 14, 1)
	if pw <= a.Probability(1, 14, 0) {
		t.Errorf("weekend hour-14 should dominate weekday hour-14")
	}
	// Bounds checks.
	if a.Probability(1, -1, 0) != 0 || a.Probability(1, 0, 2) != 0 || a.Probability(99, 10, 0) != 0 {
		t.Error("out-of-range probability should be 0")
	}
}

func TestAvailabilityWindows(t *testing.T) {
	a := NewAvailabilityModel()
	for i := 0; i < 10; i++ {
		a.Observe(1, float64(i%5)*86400+9*3600)  // hour 9 weekdays
		a.Observe(1, float64(i%5)*86400+10*3600) // hour 10 weekdays
	}
	ws := a.Windows(1, 0.2)
	if len(ws) != 1 {
		t.Fatalf("got %d windows: %+v", len(ws), ws)
	}
	w := ws[0]
	if w.Weekend || w.StartHour != 9 || w.EndHour != 11 {
		t.Errorf("window = %+v, want weekday 9-11", w)
	}
	if w.Confidence <= 0 {
		t.Error("confidence should be positive")
	}
}

func TestAvailabilityObserveDatasetRecoversActualHour(t *testing.T) {
	// A delivery happens at hour 9 but is confirmed at hour 12; with the
	// inferred location the model must attribute it to hour 9.
	loc := geo.Point{X: 100, Y: 100}
	var tra traj.Trajectory
	t0 := 9 * 3600.0
	for ts := 0.0; ts < 120; ts += 10 {
		tra = append(tra, traj.GPSPoint{P: loc, T: t0 + ts})
	}
	// Then the courier moves away and idles elsewhere until hour 12.
	far := geo.Point{X: 900, Y: 900}
	for ts := 200.0; ts < 10900; ts += 60 {
		tra = append(tra, traj.GPSPoint{P: far, T: t0 + ts})
	}
	ds := &model.Dataset{
		Name:      "t",
		Addresses: []model.AddressInfo{{ID: 1}},
		Truth:     map[model.AddressID]geo.Point{1: loc},
		Trips: []model.Trip{{
			StartT: t0, EndT: t0 + 11000, Traj: tra,
			Waybills: []model.Waybill{{
				Addr: 1, ReceivedT: t0,
				ActualDeliveryT:   t0 + 115,
				RecordedDeliveryT: 12 * 3600, // confirmed three hours late
			}},
		}},
	}
	withLoc := NewAvailabilityModel()
	withLoc.ObserveDataset(ds, map[model.AddressID]geo.Point{1: loc},
		traj.DefaultNoiseFilter(), traj.DefaultStayPointConfig(), 50)
	if p9 := withLoc.Probability(1, 9, 0); p9 <= withLoc.Probability(1, 12, 0) {
		t.Errorf("with inferred location, hour 9 should win: P9=%v P12=%v",
			p9, withLoc.Probability(1, 12, 0))
	}
	// Without the inferred location the recorded (wrong) hour wins.
	without := NewAvailabilityModel()
	without.ObserveDataset(ds, nil, traj.DefaultNoiseFilter(), traj.DefaultStayPointConfig(), 50)
	if p12 := without.Probability(1, 12, 0); p12 <= without.Probability(1, 9, 0) {
		t.Errorf("without inferred location, recorded hour should win: P12=%v", p12)
	}
}
