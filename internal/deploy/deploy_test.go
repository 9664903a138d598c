package deploy

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"

	"dlinfma/internal/deploy/api"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
)

func TestStoreFallbackChain(t *testing.T) {
	s := NewStore()
	s.RegisterAddress(1, 10, geo.Point{X: 100, Y: 100})
	s.RegisterAddress(2, 10, geo.Point{X: 110, Y: 100})
	s.RegisterAddress(3, 11, geo.Point{X: 500, Y: 500})

	// Unknown address entirely.
	if _, src := s.Freeze().Query(99); src != SourceNone {
		t.Errorf("unknown address source = %v", src)
	}
	// Geocode fallback before any inference.
	loc, src := s.Freeze().Query(1)
	if src != SourceGeocode || loc != (geo.Point{X: 100, Y: 100}) {
		t.Errorf("geocode fallback: %v %v", loc, src)
	}
	// Address-level answer after Put.
	s.Put(1, geo.Point{X: 105, Y: 95})
	f := s.Freeze()
	loc, src = f.Query(1)
	if src != SourceAddress || loc != (geo.Point{X: 105, Y: 95}) {
		t.Errorf("address answer: %v %v", loc, src)
	}
	// Sibling address in the same building falls back to the building
	// majority.
	loc, src = f.Query(2)
	if src != SourceBuilding || loc != (geo.Point{X: 105, Y: 95}) {
		t.Errorf("building fallback: %v %v", loc, src)
	}
	// Address of another building without inference still geocodes.
	if _, src = f.Query(3); src != SourceGeocode {
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
	s.RegisterAddress(4, 7, geo.Point{X: 9, Y: 9})
	f := s.Freeze()
	if loc, src := f.Query(4); src != SourceBuilding || loc != (geo.Point{X: 1, Y: 1}) {
		t.Errorf("unlocated address of building 7 = %v %v, want the majority", loc, src)
	}
	if f.Inferred() != 3 {
		t.Errorf("Inferred = %d", f.Inferred())
	}
}

// TestStoreConcurrentAccess is the concurrency a Store has in production:
// several goroutines at once — shards re-inferring, a restore loading —
// each filling and freezing a store of its own, which no other goroutine
// touches. Under make race any state the stores shared would be reported.
func TestStoreConcurrentAccess(t *testing.T) {
	frozen := make([]*FrozenStore, 8)
	var wg sync.WaitGroup
	for g := range frozen {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := NewStore()
			for i := 0; i < 200; i++ {
				id := model.AddressID(g*1000 + i)
				s.RegisterAddress(id, model.BuildingID(g), geo.Point{X: float64(i)})
				s.Put(id, geo.Point{X: float64(i), Y: float64(g)})
				if i%20 == 0 {
					s.Freeze().Query(id)
				}
			}
			frozen[g] = s.Freeze()
		}(g)
	}
	wg.Wait()
	answers := 0
	for g, f := range frozen {
		answers += f.Inferred()
		for i := 0; i < 200; i++ {
			if loc, src := f.Query(model.AddressID(g*1000 + i)); src != SourceAddress || loc != (geo.Point{X: float64(i), Y: float64(g)}) {
				t.Fatalf("store %d answers address %d with %v %v", g, g*1000+i, loc, src)
			}
		}
	}
	if answers != 1600 {
		t.Errorf("Inferred sums to %d, want 1600", answers)
	}
}

func TestHTTPQueryAPI(t *testing.T) {
	s := NewStore()
	s.RegisterAddress(7, 1, geo.Point{X: 10, Y: 20})
	s.Put(7, geo.Point{X: 12, Y: 22})
	srv := httptest.NewServer(NewService(storeOnlyEngine{s.Freeze()}, Options{}))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/locations/7")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var qr api.Location
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
