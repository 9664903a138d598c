// Package geocode models the commercial geocoding service the paper depends
// on. Since that service is proprietary, this package provides the POI
// category taxonomy the paper's address features use (21 categories) and the
// labels of its three documented failure modes: plain imprecision, coarse POI
// databases that collapse several buildings onto one point, and wrong address
// parsing that resolves to a similarly named sibling community (the Figure 12
// case studies). internal/synth draws the geocodes themselves.
package geocode

// POICategory is the category the geocoder returns with each address. The
// paper reports 21 categories; the taxonomy below follows common Chinese POI
// schemes.
type POICategory int8

// The 21 POI categories.
const (
	POIResidence POICategory = iota
	POIVilla
	POIDormitory
	POICompany
	POIOfficeBuilding
	POIGovernment
	POISchool
	POIUniversity
	POIHospital
	POIClinic
	POIMall
	POIConvenienceStore
	POIRestaurant
	POIHotel
	POIBank
	POIPostOffice
	POIFactory
	POIWarehouse
	POIGym
	POIPark
	POIOther

	NumPOICategories = 21
)

var poiNames = [...]string{
	"residence", "villa", "dormitory", "company", "office building",
	"government", "school", "university", "hospital", "clinic", "mall",
	"convenience store", "restaurant", "hotel", "bank", "post office",
	"factory", "warehouse", "gym", "park", "other",
}

// String returns the category name.
func (c POICategory) String() string {
	if c < 0 || int(c) >= len(poiNames) {
		return "invalid"
	}
	return poiNames[c]
}

// Valid reports whether c is one of the 21 categories.
func (c POICategory) Valid() bool { return c >= 0 && c < NumPOICategories }

// ErrorMode classifies why a geocode deviates from the building location.
type ErrorMode int8

// Geocoding failure modes observed in the paper's case studies (Fig. 12).
const (
	// ErrAccurate: small Gaussian imprecision only.
	ErrAccurate ErrorMode = iota
	// ErrCoarsePOI: the POI database has one entry for a whole residential
	// area, so several buildings share a geocode at the area centroid
	// (Fig. 12(b)).
	ErrCoarsePOI
	// ErrWrongParse: the address parsed to a similarly named sibling
	// community, producing a large error (Fig. 12(a), "San Yi Li" vs
	// "San Yi Xi Li").
	ErrWrongParse
)

// String returns a short label for the mode.
func (m ErrorMode) String() string {
	switch m {
	case ErrAccurate:
		return "accurate"
	case ErrCoarsePOI:
		return "coarse-poi"
	case ErrWrongParse:
		return "wrong-parse"
	default:
		return "invalid"
	}
}
