package geocode

import "testing"

func TestPOICategories(t *testing.T) {
	if NumPOICategories != 21 {
		t.Fatalf("NumPOICategories = %d, want 21 (as the paper states)", NumPOICategories)
	}
	seen := map[string]bool{}
	for c := POICategory(0); c < NumPOICategories; c++ {
		if !c.Valid() {
			t.Errorf("category %d should be valid", c)
		}
		name := c.String()
		if name == "" || name == "invalid" {
			t.Errorf("category %d has bad name %q", c, name)
		}
		if seen[name] {
			t.Errorf("duplicate category name %q", name)
		}
		seen[name] = true
	}
	if POICategory(-1).Valid() || POICategory(21).Valid() {
		t.Error("out-of-range categories should be invalid")
	}
	if POICategory(99).String() != "invalid" {
		t.Error("out-of-range String should be invalid")
	}
}

func TestErrorModeStrings(t *testing.T) {
	cases := map[ErrorMode]string{
		ErrAccurate:   "accurate",
		ErrCoarsePOI:  "coarse-poi",
		ErrWrongParse: "wrong-parse",
		ErrorMode(9):  "invalid",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
}
