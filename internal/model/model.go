// Package model defines the shared domain types of Section II of the paper:
// waybills, delivery trips, addresses, and the dataset container every
// component consumes.
package model

import (
	"dlinfma/internal/geo"
	"dlinfma/internal/geocode"
	"dlinfma/internal/traj"
)

// AddressID identifies a shipping address.
type AddressID int32

// CourierID identifies a courier.
type CourierID int32

// BuildingID identifies a building, as extracted by the address segmentation
// tool (footnote 3 of the paper). The location-commonality feature is
// computed at building granularity.
type BuildingID int32

// Waybill is Definition 1: the delivery of one parcel. RecordedDeliveryT is
// the confirmation timestamp the courier logged, which may be delayed well
// past the actual drop-off.
type Waybill struct {
	Addr      AddressID
	ReceivedT float64 // t_re: when the courier received the parcel
	// RecordedDeliveryT is t_d, the (possibly delayed) recorded delivery
	// time. This is the only delivery timestamp visible to inference.
	RecordedDeliveryT float64
	// ActualDeliveryT is simulation ground truth: when the parcel was really
	// dropped off. Inference code must never read it; it exists for delay
	// injection, evaluation, and the customer-availability application.
	ActualDeliveryT float64
	// ConfirmLag is the courier's organic confirmation lag in seconds: even
	// a prompt confirmation happens a little after the drop-off, while the
	// courier walks away. Simulation ground truth; delay injection preserves
	// it when resetting recorded times.
	ConfirmLag float64
}

// Trip is Definition 5: one courier's delivery trip with its trajectory and
// waybills.
type Trip struct {
	Courier  CourierID
	StartT   float64
	EndT     float64
	Traj     traj.Trajectory
	Waybills []Waybill
}

// AddressInfo carries the static attributes of an address: its building, its
// geocode, and the POI category the geocoder returned.
type AddressInfo struct {
	ID       AddressID
	Building BuildingID
	Geocode  geo.Point
	POI      geocode.POICategory
	// GeocodeMode is simulation ground truth about why the geocode is off;
	// used by the case-study example, never by inference.
	GeocodeMode geocode.ErrorMode
}

// Dataset bundles everything the pipeline consumes plus evaluation ground
// truth.
type Dataset struct {
	Name      string
	Trips     []Trip
	Addresses []AddressInfo

	// Truth maps each address to its actual delivery location (the paper's
	// courier-labelled ground truth).
	Truth map[AddressID]geo.Point
}

// AddressByID returns the AddressInfo for id, or false when unknown.
func (d *Dataset) AddressByID(id AddressID) (AddressInfo, bool) {
	// Addresses are stored sorted by ID by construction; fall back to scan
	// if not.
	i := int(id)
	if i >= 0 && i < len(d.Addresses) && d.Addresses[i].ID == id {
		return d.Addresses[i], true
	}
	for _, a := range d.Addresses {
		if a.ID == id {
			return a, true
		}
	}
	return AddressInfo{}, false
}

// Deliveries returns the number of waybills across all trips.
func (d *Dataset) Deliveries() int {
	n := 0
	for _, tr := range d.Trips {
		n += len(tr.Waybills)
	}
	return n
}

// TrajectoryPoints returns the total number of GPS fixes across all trips.
func (d *Dataset) TrajectoryPoints() int {
	n := 0
	for _, tr := range d.Trips {
		n += len(tr.Traj)
	}
	return n
}
