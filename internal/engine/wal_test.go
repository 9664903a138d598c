package engine

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"dlinfma/internal/deploy"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/traj"
)

// walPayloads are one of every record a log can hold, and the damage around
// each: widths off by one, tags nobody wrote, JSON of an unknown kind — the
// JSON pt and end records of earlier builds among them.
var walPayloads = func() [][]byte {
	point := appendWALOp(nil, &deploy.StreamOp{Courier: -7, Pt: traj.GPSPoint{P: geo.Point{X: 116397.53, Y: -0.0}, T: 1622505600.125}})
	end := appendWALOp(nil, &deploy.StreamOp{Courier: 1 << 30, End: true})
	return [][]byte{
		point, end,
		point[:len(point)-1], append(bytes.Clone(point), 0), {walTagPoint},
		end[:len(end)-1], append(bytes.Clone(end), 0), {walTagEnd},
		walCutRecord[:], {walTagCut, 0},
		{}, {0x00}, {0x03, 1, 2, 3, 4}, {0xff},
		[]byte(`{"k":"pt","c":4,"x":1.5,"y":-2,"t":3}`),
		[]byte(`{"k":"end","c":4}`),
		encodeWALIngest(
			[]model.Trip{{Courier: 2, StartT: 1, EndT: 2, Traj: traj.Trajectory{{P: geo.Point{X: 1, Y: 2}, T: 1}}}},
			[]model.AddressInfo{{ID: 1, Geocode: geo.Point{X: 3, Y: 4}}},
			map[model.AddressID]geo.Point{1: {X: 5, Y: 6}}),
		[]byte(`{"k":"waybill","c":3}`),
		[]byte(`{"k":"pt","c":99999999999}`),
		[]byte(`{"k":"pt","c":1,"x":1e999}`),
		[]byte(`{"k":"end","c":1} `),
		[]byte(`{"k":"end"}{"k":"end"}`),
		[]byte(`{"k":`),
		[]byte(`{}`),
	}
}()

// checkWALRecord holds decodeWALRecord to its contract on one payload: no
// panic; a binary record that decodes re-encodes to the same bytes (a cut is
// exactly the one-byte cut record); a payload that starts with '{' decodes to
// the window json.Unmarshal makes of it, and is refused when encoding/json
// refuses it or its kind is not the window's.
func checkWALRecord(t *testing.T, payload []byte) {
	t.Helper()
	op, window, cut, err := decodeWALRecord(payload)
	if len(payload) == 0 || payload[0] != walTagJSON {
		if err != nil {
			return
		}
		if window != nil {
			t.Fatalf("binary payload %x decoded as a batch window", payload)
		}
		if cut {
			if !bytes.Equal(payload, walCutRecord[:]) {
				t.Fatalf("payload %x decoded as a window cut", payload)
			}
			return
		}
		if again := appendWALOp(nil, &op); !bytes.Equal(again, payload) {
			t.Fatalf("payload %x decoded to %+v, which encodes to %x", payload, op, again)
		}
		return
	}
	var rec walRecord
	jsonErr := json.Unmarshal(payload, &rec)
	if (err == nil) != (jsonErr == nil && rec.Kind == walKindIngest) {
		t.Fatalf("payload %q: decode error %v, encoding/json %v with kind %q", payload, err, jsonErr, rec.Kind)
	}
	if err == nil && (cut || window == nil || !reflect.DeepEqual(*window, rec)) {
		t.Fatalf("payload %q: window %+v, encoding/json %+v", payload, window, rec)
	}
}

// TestWALRecordCodec runs the table, pins the widths the design document
// and the ladder's wal.bytes_per_record quote, and checks the cut record
// decodes as one.
func TestWALRecordCodec(t *testing.T) {
	for _, p := range walPayloads {
		checkWALRecord(t, p)
	}
	if len(walPayloads[0]) != 29 || len(walPayloads[1]) != 5 {
		t.Fatalf("point and end records are %d and %d bytes, want 29 and 5", len(walPayloads[0]), len(walPayloads[1]))
	}
	for i, p := range walPayloads[:2] {
		if _, _, _, err := decodeWALRecord(p); err != nil {
			t.Fatalf("record %d does not decode: %v", i, err)
		}
	}
	if _, _, cut, err := decodeWALRecord(walCutRecord[:]); err != nil || !cut {
		t.Fatalf("the cut record decodes as cut=%v, err %v", cut, err)
	}
}

func FuzzWALRecordDecode(f *testing.F) {
	for _, p := range walPayloads {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkWALRecord(t, payload)
	})
}
