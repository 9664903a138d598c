// Package gen makes every benchmark input from the seed: the city-scale
// store snapshot and the answers it must serve, the lookup key streams, the
// batch request bodies, the streamed trajectory corpus and the re-inference
// dataset. The same seed gives byte-identical inputs; the server under test
// sees only what is generated here.
package gen

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"dlinfma/internal/deploy/api"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/synth"
)

// CityAddresses is the size of the lookup workloads' store: the scale of a
// city's address table rather than the 182 addresses of the Tiny profile.
const CityAddresses = 200_000

// addrsPerBuilding fixes the city's building size.
const addrsPerBuilding = 8

// City is a store-only serving state and the answer each key must get.
type City struct {
	Addresses []model.AddressInfo
	Locations map[model.AddressID]geo.Point
	// want[id] is the answer the fallback chain must give for id.
	want []api.Location
}

// cm rounds to centimetres, the precision a geocoder or GPS fix carries.
func cm(v float64) float64 { return math.Round(v*100) / 100 }

// NewCity builds n addresses in buildings of eight. 90 % of the addresses
// have an inferred location; 5 % sit in a building whose other addresses
// have one (answered by the building majority) and 5 % in buildings with
// none (answered by the geocode). In every building the first two located
// addresses share the building's locker, the rest have a doorstep of their
// own, so the majority is unique and does not depend on restore order.
func NewCity(seed int64, n int) *City {
	rng := rand.New(rand.NewSource(seed))
	c := &City{
		Addresses: make([]model.AddressInfo, n),
		Locations: make(map[model.AddressID]geo.Point, n),
		want:      make([]api.Location, n),
	}
	const extent = 20_000.0
	for b := 0; b*addrsPerBuilding < n; b++ {
		centre := geo.Point{X: cm(rng.Float64() * extent), Y: cm(rng.Float64() * extent)}
		locker := geo.Point{X: cm(centre.X + 30), Y: cm(centre.Y - 20)}
		located := 0
		for slot := 0; slot < addrsPerBuilding && b*addrsPerBuilding+slot < n; slot++ {
			id := model.AddressID(b*addrsPerBuilding + slot)
			gc := geo.Point{X: cm(centre.X + rng.NormFloat64()*25), Y: cm(centre.Y + rng.NormFloat64()*25)}
			c.Addresses[id] = model.AddressInfo{ID: id, Building: model.BuildingID(b), Geocode: gc}
			switch {
			case b%20 == 0: // whole building without inferred locations
				c.want[id] = api.Location{Addr: int64(id), X: gc.X, Y: gc.Y, Source: "geocode"}
			case b%20 <= 8 && slot == addrsPerBuilding-1: // one address without
				c.want[id] = api.Location{Addr: int64(id), X: locker.X, Y: locker.Y, Source: "building"}
			default:
				loc := locker
				if located >= 2 {
					loc = geo.Point{X: cm(centre.X + rng.NormFloat64()*8), Y: cm(centre.Y + rng.NormFloat64()*8)}
				}
				located++
				c.Locations[id] = loc
				c.want[id] = api.Location{Addr: int64(id), X: loc.X, Y: loc.Y, Source: "address"}
			}
		}
	}
	return c
}

// snapshotDoc mirrors the single-engine snapshot format of
// engine.Engine.WriteSnapshot (version 1, no matcher: a store-only state).
type snapshotDoc struct {
	Version   int                   `json:"version"`
	Name      string                `json:"name"`
	Addresses []model.AddressInfo   `json:"addresses"`
	Locations map[string][2]float64 `json:"locations"`
}

// SnapshotDoc encodes addresses and locations as a version-1 snapshot.
// encoding/json sorts map keys, so the bytes are a function of the inputs.
func SnapshotDoc(name string, addrs []model.AddressInfo, locs map[model.AddressID]geo.Point) []byte {
	doc := snapshotDoc{Version: 1, Name: name, Addresses: addrs, Locations: make(map[string][2]float64, len(locs))}
	for id, p := range locs {
		doc.Locations[strconv.Itoa(int(id))] = [2]float64{p.X, p.Y}
	}
	b, err := json.Marshal(&doc)
	if err != nil {
		panic(fmt.Sprintf("gen: marshal snapshot: %v", err)) // plain value types only
	}
	return append(b, '\n')
}

// Doc is the city's snapshot document.
func (c *City) Doc() []byte { return SnapshotDoc("city", c.Addresses, c.Locations) }

// Want returns the answer id must get and whether id is known.
func (c *City) Want(id int64) (api.Location, bool) {
	if id < 0 || id >= int64(len(c.want)) {
		return api.Location{}, false
	}
	return c.want[id], true
}

// LocationBody is the exact response body of GET /v1/locations/{key} for a
// known key: the server encodes the same struct with the same encoder.
func LocationBody(loc api.Location) []byte {
	b, _ := json.Marshal(loc)
	return append(b, '\n')
}

// NotFoundBody is the exact 404 envelope of an unknown key.
func NotFoundBody(id int64) []byte {
	b, _ := json.Marshal(api.ErrorEnvelope{Error: &api.Error{
		Code: api.CodeNotFound, Message: "unknown address", Details: map[string]any{"addr": id},
	}})
	return append(b, '\n')
}

// Keys draws lookup keys: Zipf(1.1)-ranked over a seeded permutation of the
// n known ids, with every 50th draw on average (2 %) an unknown id.
type Keys struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int32
	n    int64
}

// Perm returns the seeded permutation that maps popularity rank to id; all
// connections of one run share it.
func Perm(seed int64, n int) []int32 {
	perm := make([]int32, n)
	for i, v := range rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(n) {
		perm[i] = int32(v)
	}
	return perm
}

// NewKeys returns the key stream of one connection.
func NewKeys(seed int64, conn int, perm []int32) *Keys {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(conn)))
	return &Keys{
		rng:  rng,
		zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(perm)-1)),
		perm: perm,
		n:    int64(len(perm)),
	}
}

// Next returns the next key and whether the store knows it.
func (k *Keys) Next() (id int64, known bool) {
	if k.rng.Intn(50) == 0 {
		return k.n + k.rng.Int63n(1_000_000), false
	}
	return int64(k.perm[k.zipf.Uint64()]), true
}

// Batch is one pre-built POST /v1/locations:batch body and its exact answer.
type Batch struct {
	Body []byte
	Want []byte
}

// BatchKeys is the number of keys per batch request.
const BatchKeys = 512

// Batches builds count bodies of BatchKeys keys drawn uniformly over the
// known ids, so the working set is the whole store rather than a hot head.
func Batches(seed int64, count int, c *City) []Batch {
	rng := rand.New(rand.NewSource(seed ^ 0xba7c4))
	out := make([]Batch, count)
	for i := range out {
		req := api.BatchLocationsRequest{Addrs: make([]int64, BatchKeys)}
		resp := api.BatchLocationsResponse{Results: make([]api.BatchResult, BatchKeys), Found: BatchKeys}
		for j := range req.Addrs {
			id := rng.Int63n(int64(len(c.want)))
			req.Addrs[j] = id
			loc := c.want[id]
			resp.Results[j] = api.BatchResult{Addr: id, Location: &loc}
		}
		body, _ := json.Marshal(&req)
		want, _ := json.Marshal(&resp)
		out[i] = Batch{Body: body, Want: append(want, '\n')}
	}
	return out
}

// Burst is one trip's NDJSON upload: every fix, then the end marker.
type Burst struct {
	Body   []byte
	Points int
}

// StreamCorpus builds the streamed corpus: the DowBJ profile's trips
// generated from seed, repeated reps times. Repetition r is the same trips
// moved one city-width east and one season later, under courier ids of its
// own, so the pool keeps growing the way a longer observation period makes
// it grow. Every trip carries a courier id of its own.
func StreamCorpus(seed int64, reps int) ([]Burst, error) {
	p := synth.DowBJ()
	p.Seed = seed
	ds, _, err := synth.Generate(p)
	if err != nil {
		return nil, err
	}
	out := make([]Burst, 0, reps*len(ds.Trips))
	for r := 0; r < reps; r++ {
		dx, dt := float64(r)*p.Extent, float64(r)*float64(p.Days)*86400
		for i, tr := range ds.Trips {
			courier := int64(r*len(ds.Trips) + i + 1)
			body := make([]byte, 0, 64*len(tr.Traj)+32)
			for _, pt := range tr.Traj {
				body = append(body, `{"courier":`...)
				body = strconv.AppendInt(body, courier, 10)
				body = append(body, `,"x":`...)
				body = strconv.AppendFloat(body, cm(pt.P.X+dx), 'f', -1, 64)
				body = append(body, `,"y":`...)
				body = strconv.AppendFloat(body, cm(pt.P.Y), 'f', -1, 64)
				body = append(body, `,"t":`...)
				body = strconv.AppendFloat(body, math.Round((pt.T+dt)*1000)/1000, 'f', -1, 64)
				body = append(body, "}\n"...)
			}
			body = append(body, `{"courier":`...)
			body = strconv.AppendInt(body, courier, 10)
			body = append(body, ",\"end\":true}\n"...)
			out = append(out, Burst{Body: body, Points: len(tr.Traj)})
		}
	}
	return out, nil
}

// RefreshProfile is the re-inference workload's dataset: the DowBJ profile
// at a third of its buildings and two thirds of its days (200 trips, 224
// addresses), so one re-inference fits the run length. Its seed is fixed: early stopping
// makes the number of training epochs, and with it the refresh time, a
// property of the dataset, and a metric compared across runs needs the same
// work in every run. The run's seed drives the probe traffic instead.
func RefreshProfile() synth.Profile {
	p := synth.DowBJ()
	p.Name = "DowBJ-third"
	p.NBuildings = 50
	p.Extent = 1400
	p.Days = 40
	return p
}
