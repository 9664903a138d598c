package main

import (
	"math"
	"math/rand"
	"testing"

	"dlinfma/internal/geo"
	"dlinfma/internal/synth"
)

func TestPlanRouteBeatsIdentityOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	start := geo.Point{}
	var stops []geo.Point
	for i := 0; i < 25; i++ {
		stops = append(stops, geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000})
	}
	order := PlanRoute(start, stops)
	// Valid permutation.
	seen := make([]bool, len(stops))
	for _, i := range order {
		if seen[i] {
			t.Fatal("stop visited twice")
		}
		seen[i] = true
	}
	identity := make([]int, len(stops))
	for i := range identity {
		identity[i] = i
	}
	planned := RouteLength(start, stops, order)
	naive := RouteLength(start, stops, identity)
	if planned > naive {
		t.Errorf("planned route %.0f longer than naive %.0f", planned, naive)
	}
}

func TestPlanRouteSquare(t *testing.T) {
	// Optimal tour over a unit square from a corner is the perimeter.
	stops := []geo.Point{{X: 0, Y: 100}, {X: 100, Y: 100}, {X: 100, Y: 0}}
	order := PlanRoute(geo.Point{}, stops)
	if got := RouteLength(geo.Point{}, stops, order); math.Abs(got-400) > 1e-9 {
		t.Errorf("square tour length %v, want 400", got)
	}
}

func TestPlanRouteEmpty(t *testing.T) {
	if got := PlanRoute(geo.Point{}, nil); got != nil {
		t.Errorf("empty route = %v", got)
	}
	if got := RouteLength(geo.Point{}, nil, nil); got != 0 {
		t.Errorf("empty length = %v", got)
	}
}

func TestTwoOptFixesCrossing(t *testing.T) {
	// Four points where nearest-neighbor from (0,0) produces a crossing
	// tour; 2-opt must untangle it to the perimeter (length 60+80+60+80 with
	// a 3-4-5-ish rectangle => use a plain rectangle).
	stops := []geo.Point{{X: 0, Y: 50}, {X: 100, Y: 0}, {X: 100, Y: 50}}
	order := PlanRoute(geo.Point{}, stops)
	got := RouteLength(geo.Point{}, stops, order)
	// Best closed tour: (0,0)->(0,50)->(100,50)->(100,0)->(0,0) = 50+100+50+100.
	if math.Abs(got-300) > 1e-6 {
		t.Errorf("tour length %v, want 300", got)
	}
}

func TestPlanRouteNearOptimalOnSmallInstances(t *testing.T) {
	// Brute-force the optimal closed tour for up to 7 stops and require the
	// heuristic to be within 5% on random instances.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(4)
		stops := make([]geo.Point, n)
		for i := range stops {
			stops[i] = geo.Point{X: rng.Float64() * 500, Y: rng.Float64() * 500}
		}
		start := geo.Point{X: rng.Float64() * 500, Y: rng.Float64() * 500}

		best := math.Inf(1)
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		var rec func(k int)
		rec = func(k int) {
			if k == n {
				if l := RouteLength(start, stops, perm); l < best {
					best = l
				}
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0)

		got := RouteLength(start, stops, PlanRoute(start, stops))
		if got > best*1.05+1e-9 {
			t.Errorf("trial %d: heuristic %.1f vs optimal %.1f", trial, got, best)
		}
	}
}

func TestOrOptExtractsStrandedStop(t *testing.T) {
	// A stop stranded between two clusters that plain nearest-neighbor
	// visits at the wrong time; the improvement passes must recover a tour
	// at most as long as visiting it en route.
	stops := []geo.Point{
		{X: 100, Y: 0}, {X: 110, Y: 0}, {X: 120, Y: 0}, // cluster A
		{X: 500, Y: 0}, {X: 510, Y: 0}, // cluster B
		{X: 300, Y: 5}, // between the clusters
	}
	order := PlanRoute(geo.Point{}, stops)
	got := RouteLength(geo.Point{}, stops, order)
	// A-cluster, midpoint, B-cluster, return: roughly 2*510 + small slack.
	if got > 1100 {
		t.Errorf("tour %.0f m, want near 1030", got)
	}
}

// BenchmarkRoutePlanning measures the Application-1 TSP heuristic on a
// realistic 25-stop tour.
func BenchmarkRoutePlanning(b *testing.B) {
	ds, w, err := synth.Generate(synth.DowBJ())
	if err != nil {
		b.Fatal(err)
	}
	var stops []geo.Point
	seen := map[geo.Point]bool{}
	for _, wb := range ds.Trips[0].Waybills {
		p := w.Truth[wb.Addr]
		if !seen[p] {
			seen[p] = true
			stops = append(stops, p)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PlanRoute(geo.Point{}, stops)
	}
}
