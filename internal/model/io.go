package model

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dlinfma/internal/geo"
)

// jsonDataset mirrors Dataset with a serializable truth map (JSON object
// keys must be strings).
type jsonDataset struct {
	Name      string                `json:"name"`
	Trips     []Trip                `json:"trips"`
	Addresses []AddressInfo         `json:"addresses"`
	Truth     map[string][2]float64 `json:"truth"`
}

// ParseAddressID decodes the decimal form fmt.Sprint gives an AddressID: the
// key of every string-keyed address map read from disk or the network
// (dataset truth, ingest truth, snapshot locations, manifest routes) and the
// /v1/locations/{key} path segment. The whole string must be one base-10
// int32 — no surrounding space, no trailing bytes, no other base.
func ParseAddressID(s string) (AddressID, error) {
	id, err := strconv.ParseInt(s, 10, 32)
	return AddressID(id), err
}

// WriteJSON serializes the dataset to w as JSON.
func (d *Dataset) WriteJSON(w io.Writer) error {
	jd := jsonDataset{Name: d.Name, Trips: d.Trips, Addresses: d.Addresses,
		Truth: make(map[string][2]float64, len(d.Truth))}
	for id, p := range d.Truth {
		jd.Truth[fmt.Sprint(id)] = [2]float64{p.X, p.Y}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&jd)
}

// ReadJSON deserializes a dataset from r.
func ReadJSON(r io.Reader) (*Dataset, error) {
	var jd jsonDataset
	if err := json.NewDecoder(r).Decode(&jd); err != nil {
		return nil, fmt.Errorf("model: decode dataset: %w", err)
	}
	d := &Dataset{Name: jd.Name, Trips: jd.Trips, Addresses: jd.Addresses,
		Truth: make(map[AddressID]geo.Point, len(jd.Truth))}
	for k, v := range jd.Truth {
		id, err := ParseAddressID(k)
		if err != nil {
			return nil, fmt.Errorf("model: bad truth key %q", k)
		}
		d.Truth[id] = geo.Point{X: v[0], Y: v[1]}
	}
	return d, nil
}

// SaveFile writes the dataset to path as JSON, gzip-compressed when the path
// ends in .gz.
func (d *Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var w io.Writer = f
	if strings.HasSuffix(path, ".gz") {
		gz := gzip.NewWriter(f)
		defer gz.Close()
		w = gz
	}
	return d.WriteJSON(w)
}

// LoadFile reads a dataset from path, transparently decompressing .gz files.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, err
		}
		defer gz.Close()
		r = gz
	}
	return ReadJSON(r)
}
