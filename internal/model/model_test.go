package model

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"dlinfma/internal/geo"
	"dlinfma/internal/geocode"
	"dlinfma/internal/traj"
)

func sampleDataset() *Dataset {
	return &Dataset{
		Name: "sample",
		Addresses: []AddressInfo{
			{ID: 0, Building: 0, Geocode: geo.Point{X: 1, Y: 2}, POI: geocode.POIResidence},
			{ID: 1, Building: 0, Geocode: geo.Point{X: 3, Y: 4}, POI: geocode.POICompany, GeocodeMode: geocode.ErrWrongParse},
		},
		Truth: map[AddressID]geo.Point{0: {X: 5, Y: 6}, 1: {X: 7, Y: 8}},
		Trips: []Trip{{
			Courier: 3, StartT: 100, EndT: 300,
			Traj: traj.Trajectory{{P: geo.Point{X: 0, Y: 0}, T: 100}, {P: geo.Point{X: 10, Y: 0}, T: 200}},
			Waybills: []Waybill{
				{Addr: 0, ReceivedT: 100, ActualDeliveryT: 150, ConfirmLag: 10, RecordedDeliveryT: 160},
				{Addr: 1, ReceivedT: 100, ActualDeliveryT: 180, RecordedDeliveryT: 250},
			},
		}},
	}
}

func TestAddressByID(t *testing.T) {
	ds := sampleDataset()
	a, ok := ds.AddressByID(1)
	if !ok || a.Building != 0 || a.POI != geocode.POICompany {
		t.Errorf("AddressByID(1) = %+v, %v", a, ok)
	}
	if _, ok := ds.AddressByID(99); ok {
		t.Error("unknown id found")
	}
	// Fallback scan path: non-dense IDs.
	ds2 := &Dataset{Addresses: []AddressInfo{{ID: 5}, {ID: 9}}}
	if a, ok := ds2.AddressByID(9); !ok || a.ID != 9 {
		t.Errorf("sparse AddressByID(9) = %+v, %v", a, ok)
	}
}

func TestCounts(t *testing.T) {
	ds := sampleDataset()
	if ds.Deliveries() != 2 {
		t.Errorf("Deliveries = %d", ds.Deliveries())
	}
	if ds.TrajectoryPoints() != 2 {
		t.Errorf("TrajectoryPoints = %d", ds.TrajectoryPoints())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	ds := sampleDataset()
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != ds.Name || len(got.Trips) != 1 || len(got.Addresses) != 2 {
		t.Fatalf("round trip lost structure: %+v", got)
	}
	if got.Truth[1] != (geo.Point{X: 7, Y: 8}) {
		t.Errorf("truth lost: %v", got.Truth)
	}
	if got.Trips[0].Waybills[0].ConfirmLag != 10 {
		t.Errorf("waybill fields lost: %+v", got.Trips[0].Waybills[0])
	}
}

func TestSaveLoadFileGzip(t *testing.T) {
	ds := sampleDataset()
	dir := t.TempDir()
	for _, name := range []string{"d.json", "d.json.gz"} {
		path := filepath.Join(dir, name)
		if err := ds.SaveFile(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Name != ds.Name || got.Deliveries() != 2 {
			t.Errorf("%s: round trip mismatch", name)
		}
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}

func TestReadJSONBadInput(t *testing.T) {
	if _, err := ReadJSON(bytes.NewReader([]byte("{not json"))); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := ReadJSON(bytes.NewReader([]byte(`{"truth":{"abc":[1,2]}}`))); err == nil {
		t.Error("bad truth key accepted")
	}
}

// TestParseAddressID: the whole key must be one decimal int32. (fmt.Sscan,
// which every reader of string-keyed address maps used to call, stops at the
// first byte it cannot use and reports success.)
func TestParseAddressID(t *testing.T) {
	for _, tc := range []struct {
		key  string
		want AddressID
		ok   bool
	}{
		{"7", 7, true}, {"-3", -3, true}, {"2147483647", 2147483647, true},
		{"12abc", 0, false}, {"12 7", 0, false}, {" 5", 0, false}, {"5\n", 0, false},
		{"0x10", 0, false}, {"2147483648", 0, false}, {"", 0, false},
	} {
		got, err := ParseAddressID(tc.key)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("ParseAddressID(%q) = %d, %v; want %d, ok=%v", tc.key, got, err, tc.want, tc.ok)
		}
		_, err = ReadJSON(strings.NewReader(fmt.Sprintf(`{"truth":{%q:[1,2]}}`, tc.key)))
		if tc.ok != (err == nil) {
			t.Errorf("ReadJSON with truth key %q: %v, want ok=%v", tc.key, err, tc.ok)
		}
	}
}
