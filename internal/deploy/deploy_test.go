package deploy

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/traj"
)

func TestStoreFallbackChain(t *testing.T) {
	s := NewStore()
	s.RegisterAddress(1, 10, geo.Point{X: 100, Y: 100})
	s.RegisterAddress(2, 10, geo.Point{X: 110, Y: 100})
	s.RegisterAddress(3, 11, geo.Point{X: 500, Y: 500})

	// Unknown address entirely.
	if _, src := s.Query(99); src != SourceNone {
		t.Errorf("unknown address source = %v", src)
	}
	// Geocode fallback before any inference.
	loc, src := s.Query(1)
	if src != SourceGeocode || loc != (geo.Point{X: 100, Y: 100}) {
		t.Errorf("geocode fallback: %v %v", loc, src)
	}
	// Address-level answer after Put.
	s.Put(1, geo.Point{X: 105, Y: 95})
	loc, src = s.Query(1)
	if src != SourceAddress || loc != (geo.Point{X: 105, Y: 95}) {
		t.Errorf("address answer: %v %v", loc, src)
	}
	// Sibling address in the same building falls back to the building
	// majority.
	loc, src = s.Query(2)
	if src != SourceBuilding || loc != (geo.Point{X: 105, Y: 95}) {
		t.Errorf("building fallback: %v %v", loc, src)
	}
	// Address of another building without inference still geocodes.
	if _, src = s.Query(3); src != SourceGeocode {
		t.Errorf("other building source = %v", src)
	}
}

func TestStoreBuildingMajority(t *testing.T) {
	s := NewStore()
	for i := model.AddressID(1); i <= 3; i++ {
		s.RegisterAddress(i, 7, geo.Point{})
	}
	s.Put(1, geo.Point{X: 1, Y: 1})
	s.Put(2, geo.Point{X: 2, Y: 2})
	s.Put(3, geo.Point{X: 1, Y: 1}) // majority at (1,1)
	loc, ok := s.QueryBuilding(7)
	if !ok || loc != (geo.Point{X: 1, Y: 1}) {
		t.Errorf("building majority = %v %v", loc, ok)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := model.AddressID(g*1000 + i)
				s.RegisterAddress(id, model.BuildingID(g), geo.Point{X: float64(i)})
				s.Put(id, geo.Point{X: float64(i), Y: float64(g)})
				s.Query(id)
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 1600 {
		t.Errorf("Len = %d, want 1600", s.Len())
	}
}

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

func TestHTTPQueryAPI(t *testing.T) {
	s := NewStore()
	s.RegisterAddress(7, 1, geo.Point{X: 10, Y: 20})
	s.Put(7, geo.Point{X: 12, Y: 22})
	srv := httptest.NewServer(Service(storeOnlyEngine{s}))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/locations/7")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.X != 12 || qr.Y != 22 || qr.Source != "address" {
		t.Errorf("response %+v", qr)
	}

	// Unknown address -> 404; bad key -> 400; wrong method -> 405.
	if resp, _ := srv.Client().Get(srv.URL + "/v1/locations/999"); resp.StatusCode != 404 {
		t.Errorf("unknown address status %d", resp.StatusCode)
	}
	if resp, _ := srv.Client().Get(srv.URL + "/v1/locations/abc"); resp.StatusCode != 400 {
		t.Errorf("bad key status %d", resp.StatusCode)
	}
	if resp, _ := srv.Client().Post(srv.URL+"/v1/locations/7", "", nil); resp.StatusCode != 405 {
		t.Errorf("POST status %d", resp.StatusCode)
	}
	if resp, _ := srv.Client().Get(srv.URL + "/healthz"); resp.StatusCode != 200 {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
	if resp, _ := srv.Client().Get(srv.URL + "/v1/healthz"); resp.StatusCode != 200 {
		t.Errorf("/v1/healthz status %d", resp.StatusCode)
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
