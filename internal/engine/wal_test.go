package engine

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"dlinfma/internal/deploy"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/traj"
	"dlinfma/internal/wal"
)

// sampleWindowRecord is a window record of every part: two addresses and
// the truth of one, three trips (the first with a waybill, the second
// without stays, the third without fixes), a cut between the first two and
// one after the last, and one open stream of two fixes.
func sampleWindowRecord() []byte {
	var ww windowWriter
	fix := func(x, t float64) traj.GPSPoint { return traj.GPSPoint{P: geo.Point{X: x, Y: -x}, T: t} }
	ww.register([]model.AddressInfo{{ID: 9, Building: 3, Geocode: geo.Point{X: 1.5, Y: -2}, POI: 4, GeocodeMode: 2}, {ID: -1}},
		map[model.AddressID]geo.Point{9: {X: 1.25, Y: -2.5}})
	ww.trip(&model.Trip{Courier: 4, StartT: 10, EndT: 70, Traj: traj.Trajectory{fix(1, 10), fix(2, 40), fix(3, 70)},
		Waybills: []model.Waybill{{Addr: 9, ReceivedT: 5, RecordedDeliveryT: 65, ActualDeliveryT: 50, ConfirmLag: 3}}},
		[]traj.StayPoint{{Loc: geo.Point{X: 2, Y: -2}, ArriveT: 20, LeaveT: 60, NPoints: 4}})
	ww.cut()
	ww.trip(&model.Trip{Courier: -1, StartT: 90, EndT: 90, Traj: traj.Trajectory{fix(5, 90)}}, nil)
	ww.trip(&model.Trip{Courier: 8, StartT: 95, EndT: 99, Waybills: []model.Waybill{{Addr: -1}}}, nil)
	ww.cut()
	return ww.record(wal.Position{Seq: 41, Segment: 7, Offset: 1234}, 1209600,
		[]openStream{{courier: 6, pts: traj.Trajectory{fix(7, 100), fix(8, 110)}}})
}

// legacyBatchRecord is the JSON record earlier builds wrote for one batch
// window (one trip with a waybill, one address, its truth), which this
// build refuses.
var legacyBatchRecord = []byte(`{"k":"ingest","trips":[{"Courier":2,"StartT":1,"EndT":2,"Traj":[{"P":{"X":1,"Y":2},"T":1}],` +
	`"Waybills":[{"Addr":1,"ReceivedT":0.5,"RecordedDeliveryT":1.5,"ActualDeliveryT":0,"ConfirmLag":0}]}],` +
	`"addrs":[{"ID":1,"Building":0,"Geocode":{"X":3,"Y":4},"POI":0,"GeocodeMode":0}],"truth":{"1":{"X":5,"Y":6}}}`)

// walPayloads are one of every record a log can hold, and the damage around
// each: widths off by one, tags nobody wrote, JSON of any kind — the JSON
// batch window, pt and end records of earlier builds among them — and a
// window or seal record cut short, lengthened, or claiming more than it
// holds, a seal record with an id in a longer encoding than its shortest,
// and a retired seal record.
var walPayloads = func() [][]byte {
	point := appendWALOp(nil, &deploy.StreamOp{Courier: -7, Pt: traj.GPSPoint{P: geo.Point{X: 116397.53, Y: -0.0}, T: 1622505600.125}})
	end := appendWALOp(nil, &deploy.StreamOp{Courier: 1 << 30, End: true})
	window := sampleWindowRecord()
	huge := bytes.Clone(window)
	binary.LittleEndian.PutUint32(huge[1+3*8+8:], 1<<30) // the address count, past tag, resume and window end
	var empty windowWriter
	seal, sealDamaged := sealPayloads()
	return append([][]byte{
		point, end,
		point[:len(point)-1], append(bytes.Clone(point), 0), {walTagPoint},
		end[:len(end)-1], append(bytes.Clone(end), 0), {walTagEnd},
		walCutRecord[:], {walTagCut, 0},
		{}, {0x00}, {0x03, 1, 2, 3, 4}, {0xff},
		[]byte(`{"k":"pt","c":4,"x":1.5,"y":-2,"t":3}`),
		[]byte(`{"k":"end","c":4}`),
		legacyBatchRecord,
		[]byte(`{"k":"waybill","c":3}`),
		[]byte(`{"k":"pt","c":99999999999}`),
		[]byte(`{"k":"pt","c":1,"x":1e999}`),
		[]byte(`{"k":"end","c":1} `),
		[]byte(`{"k":"end"}{"k":"end"}`),
		[]byte(`{"k":`),
		[]byte(`{}`),
		window, window[:len(window)-1], append(bytes.Clone(window), 0), huge, {walTagWindow},
		bytes.Clone(empty.record(wal.Position{}, 0, nil)),
		seal, appendSealRecord(nil, &sealRecord{}), retiredSealRecord,
	}, sealDamaged...)
}()

// retiredSealRecord is a seal record of tag 0x04, which held the seal's
// merge pairs: shard 1 of 2, precision 7, cutoff 40, ordinal 0, 3 stays
// over 5 pool ids, one window merge (0, 2) and no pool merge. Only the
// window log takes it, and skips it.
var retiredSealRecord = func() []byte {
	b := []byte{walTagRetiredSeal, 1, 0, 0, 0, 2, 0, 0, 0, 7, 0, 0, 0}
	b = appendFloats(b, 40)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint32(b, 3)
	b = binary.LittleEndian.AppendUint64(b, 0x0123456789abcdef)
	b = binary.LittleEndian.AppendUint64(b, 5)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = append(b, 0, 2)
	return binary.LittleEndian.AppendUint32(b, 0)
}()

// sealPayloads are the sample seal record and its damage: cut short,
// lengthened, claiming more window clusters than it holds, an id in a
// longer encoding than its shortest, and the tag alone.
func sealPayloads() (whole []byte, damaged [][]byte) {
	seal := sampleSealRecord()
	huge := bytes.Clone(seal)
	// The window cluster count, past tag, key, ordinal and guards.
	binary.LittleEndian.PutUint32(huge[1+3*4+2*8+4+2*8:], 1<<30)
	// The last id, 0x7fffffff, in six bytes instead of five.
	long := append(bytes.Clone(seal[:len(seal)-5]), 0xff, 0xff, 0xff, 0xff, 0x87, 0)
	return seal, [][]byte{seal[:len(seal)-1], append(bytes.Clone(seal), 0), huge, long, {walTagSeal}}
}

// checkWALRecord holds decodeWALRecord to its contract on one payload: no
// panic; a payload starting with '{', the JSON records of earlier builds,
// is refused; and a record that decodes re-encodes to the same bytes (a cut
// is exactly the one-byte cut record, a window record re-encodes through
// windowWriter, a seal record through appendSealRecord).
func checkWALRecord(t *testing.T, payload []byte) {
	t.Helper()
	ent, err := decodeWALRecord(payload)
	if err != nil {
		return
	}
	switch {
	case payload[0] == '{':
		t.Fatalf("JSON payload %q decoded as %+v", payload, ent)
	case ent.cut:
		if !bytes.Equal(payload, walCutRecord[:]) {
			t.Fatalf("payload %x decoded as a window cut", payload)
		}
	case ent.window != nil:
		if again := encodeWindowRecord(ent.window); !bytes.Equal(again, payload) {
			t.Fatalf("payload %x decoded to %+v, which encodes to %x", payload, ent.window, again)
		}
	case ent.seal != nil:
		if again := appendSealRecord(nil, ent.seal); !bytes.Equal(again, payload) {
			t.Fatalf("payload %x decoded to %+v, which encodes to %x", payload, ent.seal, again)
		}
	default:
		if again := appendWALOp(nil, &ent.op); !bytes.Equal(again, payload) {
			t.Fatalf("payload %x decoded to %+v, which encodes to %x", payload, ent.op, again)
		}
	}
}

// encodeWindowRecord re-encodes a decoded window record through the
// writer the engine builds records with.
func encodeWindowRecord(rec *windowRecord) []byte {
	var ww windowWriter
	ww.register(rec.addrs, rec.truth)
	c := 0
	for i := range rec.trips {
		for ; c < len(rec.cuts) && rec.cuts[c] == i; c++ {
			ww.cut()
		}
		ww.trip(&rec.trips[i].trip, rec.trips[i].stays)
	}
	for ; c < len(rec.cuts); c++ {
		ww.cut()
	}
	return bytes.Clone(ww.record(rec.resume, rec.winEnd, rec.streams))
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
		if _, err := decodeWALRecord(p); err != nil {
			t.Fatalf("record %d does not decode: %v", i, err)
		}
	}
	if ent, err := decodeWALRecord(walCutRecord[:]); err != nil || !ent.cut {
		t.Fatalf("the cut record decodes as cut=%v, err %v", ent.cut, err)
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

// TestSealRecordDecoderRefuses: the damaged seal records and a retired one
// are refused, and the whole one decodes.
func TestSealRecordDecoderRefuses(t *testing.T) {
	seal, damaged := sealPayloads()
	if _, err := decodeWALRecord(retiredSealRecord); err == nil || !strings.Contains(err.Error(), "retired seal record") {
		t.Errorf("a retired seal record decodes: %v", err)
	}
	if _, err := decodeWALRecord(seal); err != nil {
		t.Fatalf("the sample seal record does not decode: %v", err)
	}
	for i, p := range damaged {
		if ent, err := decodeWALRecord(p); err == nil {
			t.Errorf("damaged seal record %d (%x) decoded as %+v", i, p, ent.seal)
		}
	}
}
