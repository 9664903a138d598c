package main

import (
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/traj"
)

// AvailabilityModel infers when a customer is available to receive parcels
// (Application 2, Section VI-C): successful deliveries are bucketed by hour
// of day and weekday/weekend, with the actual delivery time recovered from
// the stay point nearest the inferred delivery location — so batch-confirmed
// waybills contribute their true hour rather than the recorded one.
type AvailabilityModel struct {
	// counts[addr][weekend 0/1][hour]
	counts map[model.AddressID]*[2][24]float64
	totals map[model.AddressID]float64
}

// NewAvailabilityModel returns an empty model.
func NewAvailabilityModel() *AvailabilityModel {
	return &AvailabilityModel{
		counts: make(map[model.AddressID]*[2][24]float64),
		totals: make(map[model.AddressID]float64),
	}
}

// hourAndDay converts a dataset timestamp (seconds from the epoch day 0) to
// its hour-of-day and weekend flag (day 0 is a Monday).
func hourAndDay(t float64) (hour, weekend int) {
	day := int(t/86400) % 7
	hour = int(t/3600) % 24
	if day >= 5 {
		weekend = 1
	}
	return hour, weekend
}

// ObserveDataset trains the model from a dataset and the inferred delivery
// locations: for each waybill, the actual delivery time is the departure of
// the stay point nearest the address's inferred location in that trip's
// trajectory, falling back to the recorded time when no stay matches within
// maxDist meters.
func (a *AvailabilityModel) ObserveDataset(ds *model.Dataset, inferred map[model.AddressID]geo.Point, nf traj.NoiseFilterConfig, spc traj.StayPointConfig, maxDist float64) {
	if maxDist <= 0 {
		maxDist = 50
	}
	for _, tr := range ds.Trips {
		sps := traj.ExtractStayPoints(tr.Traj, nf, spc)
		for _, w := range tr.Waybills {
			loc, ok := inferred[w.Addr]
			t := w.RecordedDeliveryT
			if ok {
				bestD := maxDist
				for _, sp := range sps {
					// Only stays no later than the confirmation qualify.
					if sp.MidT() > w.RecordedDeliveryT {
						continue
					}
					if d := geo.Dist(sp.Loc, loc); d < bestD {
						bestD = d
						t = sp.LeaveT
					}
				}
			}
			a.Observe(w.Addr, t)
		}
	}
}

// Observe records one successful delivery at time t.
func (a *AvailabilityModel) Observe(addr model.AddressID, t float64) {
	c := a.counts[addr]
	if c == nil {
		c = &[2][24]float64{}
		a.counts[addr] = c
	}
	hour, we := hourAndDay(t)
	c[we][hour]++
	a.totals[addr]++
}

// Probability returns the Laplace-smoothed probability that a delivery to
// addr at the given hour (and weekend flag) succeeds, relative to the
// address's observed delivery-time distribution.
func (a *AvailabilityModel) Probability(addr model.AddressID, hour, weekend int) float64 {
	c := a.counts[addr]
	if c == nil || hour < 0 || hour > 23 || weekend < 0 || weekend > 1 {
		return 0
	}
	const alpha = 0.5
	return (c[weekend][hour] + alpha) / (a.totals[addr] + alpha*48)
}

// Window is a contiguous availability window within a day.
type Window struct {
	Weekend    bool
	StartHour  int
	EndHour    int     // exclusive
	Confidence float64 // mean probability over the window
}

// Windows returns the hours whose probability is above threshold, merged
// into contiguous windows (Figure 15(b)).
func (a *AvailabilityModel) Windows(addr model.AddressID, threshold float64) []Window {
	var out []Window
	for we := 0; we <= 1; we++ {
		var cur *Window
		for h := 0; h < 24; h++ {
			p := a.Probability(addr, h, we)
			if p >= threshold {
				if cur == nil {
					out = append(out, Window{Weekend: we == 1, StartHour: h, EndHour: h + 1, Confidence: p})
					cur = &out[len(out)-1]
				} else {
					cur.Confidence = (cur.Confidence*float64(cur.EndHour-cur.StartHour) + p) / float64(cur.EndHour-cur.StartHour+1)
					cur.EndHour = h + 1
				}
			} else {
				cur = nil
			}
		}
	}
	return out
}

// Deliveries returns how many deliveries the model has seen for addr.
func (a *AvailabilityModel) Deliveries(addr model.AddressID) float64 { return a.totals[addr] }
