// Route planning (Application 1, Section VI-B): plan a courier's delivery
// tour with the TSP heuristic over three location sources — raw geocodes,
// DLInfMA-inferred locations, and the ground truth — and compare how far the
// courier would actually walk. Routes planned on wrong coordinates look
// short on paper but are executed against reality.
package main

import (
	"context"
	"fmt"
	"log"

	"dlinfma/internal/core"
	"dlinfma/internal/eval"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/synth"
)

func main() {
	ds, w, err := synth.Generate(synth.Tiny())
	if err != nil {
		log.Fatal(err)
	}

	// Train DLInfMA and infer a location for every address.
	pipe, err := core.NewPipeline(context.Background(), ds, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	ids := make([]model.AddressID, len(ds.Addresses))
	for i, a := range ds.Addresses {
		ids[i] = a.ID
	}
	samples := pipe.BuildSamples(ids, core.DefaultSampleOptions())
	core.LabelSamples(samples, ds.Truth)
	matcher := core.NewLocMatcher(eval.ExperimentLocMatcherConfig())
	if _, err := matcher.Fit(context.Background(), samples, nil); err != nil {
		log.Fatal(err)
	}
	inferred := make(map[model.AddressID]geo.Point)
	for _, s := range samples {
		inferred[s.Addr] = s.PredictedLocation(matcher.Predict(s))
	}

	truthOf := func(a model.AddressID) geo.Point { return ds.Truth[a] }
	geocodeOf := func(a model.AddressID) geo.Point {
		info, _ := ds.AddressByID(a)
		return info.Geocode
	}
	inferredOf := func(a model.AddressID) geo.Point {
		if p, ok := inferred[a]; ok {
			return p
		}
		return geocodeOf(a)
	}

	// A tour planned on source X is *executed* on the true locations: the
	// courier follows the planned visit order but walks to where parcels
	// actually go. Average over every trip in the dataset.
	walkedTotal := map[string]float64{}
	sources := []struct {
		name  string
		locOf func(model.AddressID) geo.Point
	}{
		{"geocodes", geocodeOf},
		{"DLInfMA inferred", inferredOf},
		{"ground truth (oracle)", truthOf},
	}
	nTrips := 0
	for _, trip := range ds.Trips {
		var addrs []model.AddressID
		seen := map[model.AddressID]bool{}
		for _, wb := range trip.Waybills {
			if !seen[wb.Addr] {
				seen[wb.Addr] = true
				addrs = append(addrs, wb.Addr)
			}
		}
		if len(addrs) < 3 {
			continue
		}
		nTrips++
		start := trip.Traj[0].P
		actual := make([]geo.Point, len(addrs))
		for i, a := range addrs {
			actual[i] = truthOf(a)
		}
		for _, src := range sources {
			planned := make([]geo.Point, len(addrs))
			for i, a := range addrs {
				planned[i] = src.locOf(a)
			}
			order := PlanRoute(start, planned)
			walkedTotal[src.name] += RouteLength(start, actual, order)
		}
	}
	fmt.Printf("mean executed tour length over %d trips:\n", nTrips)
	for _, src := range sources {
		fmt.Printf("  %-22s %6.0f m\n", src.name, walkedTotal[src.name]/float64(nTrips))
	}
	_ = w
}
