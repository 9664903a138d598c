package jsonscan

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// reader is one way a caller reads a number: the cursor method, and the Go
// type encoding/json would decode the same literal into, both reported as
// bits so that -0 is not 0.
type reader struct {
	name      string
	read      func(*Cursor) (uint64, bool)
	unmarshal func([]byte) (uint64, error)
}

func intReader(bits uint, name string, unmarshal func([]byte) (int64, error)) reader {
	return reader{
		name: name,
		read: func(c *Cursor) (uint64, bool) {
			v, ok := c.Int(bits)
			return uint64(v), ok
		},
		unmarshal: func(b []byte) (uint64, error) {
			v, err := unmarshal(b)
			return uint64(v), err
		},
	}
}

// readers are the widths the three strict readers ask for: Int(64) for a
// batch key and a stream courier, Int(32) for a snapshot's address and
// building ids and its map keys, Int(8) for its POI and geocode mode,
// Float(64) for every coordinate and timestamp, Float(32) for a confidence.
var readers = []reader{
	intReader(8, "Int(8)", func(b []byte) (int64, error) {
		var v int8
		err := json.Unmarshal(b, &v)
		return int64(v), err
	}),
	intReader(32, "Int(32)", func(b []byte) (int64, error) {
		var v int32
		err := json.Unmarshal(b, &v)
		return int64(v), err
	}),
	intReader(64, "Int(64)", func(b []byte) (int64, error) {
		var v int64
		err := json.Unmarshal(b, &v)
		return v, err
	}),
	{
		name: "Float(32)",
		read: func(c *Cursor) (uint64, bool) {
			v, ok := c.Float(32)
			return uint64(math.Float32bits(float32(v))), ok
		},
		unmarshal: func(b []byte) (uint64, error) {
			var v float32
			err := json.Unmarshal(b, &v)
			return uint64(math.Float32bits(v)), err
		},
	},
	{
		name: "Float(64)",
		read: func(c *Cursor) (uint64, bool) {
			v, ok := c.Float(64)
			return math.Float64bits(v), ok
		},
		unmarshal: func(b []byte) (uint64, error) {
			var v float64
			err := json.Unmarshal(b, &v)
			return math.Float64bits(v), err
		},
	},
}

// checkNumber holds every reader to encoding/json on the literal at the head
// of b: whatever the cursor accepts, json.Unmarshal into the matching type
// accepts too and decodes to the same bits; and the cursor stops at the end
// of the literal — no longer run of number bytes is still a value of the
// type, so a caller that checks the next byte sees the same token boundary
// encoding/json does.
func checkNumber(t *testing.T, b []byte) {
	t.Helper()
	for _, r := range readers {
		c := Cursor{B: b}
		got, ok := r.read(&c)
		if !ok {
			continue
		}
		lit := b[:c.I]
		want, err := r.unmarshal(lit)
		if err != nil {
			t.Fatalf("%s accepted %q, encoding/json says %v", r.name, lit, err)
		}
		if got != want {
			t.Fatalf("%s read %q as bits %#x, encoding/json as %#x", r.name, lit, got, want)
		}
		for k := c.I; k < len(b) && strings.IndexByte("0123456789.eE+-", b[k]) >= 0; k++ {
			if _, err := r.unmarshal(b[:k+1]); err == nil {
				t.Fatalf("%s stopped at %q inside the literal %q", r.name, lit, b[:k+1])
			}
		}
	}
}

func FuzzJSONNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "007", "-", ".5", "5.", "1e", "1E+2", "2147483648",
		"1234567890123456789", "1e999", "12345678901234567.5", "0.000000000000001",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkNumber(t, b) })
}

// TestDeclinesDidNotMove pins, per width, which literals a caller takes
// itself. A caller takes a literal when the cursor accepts it and it is the
// whole token (the byte after it is the caller's next literal); every other
// one goes to encoding/json. The rows are where the three hand-written
// readers this package replaced disagreed — the batch and stream readers
// capped integers at 18 digits and took "-0", the snapshot reader capped them
// at 10 and declined "-0" — and the number grammar's edges. Where they
// disagreed the answer is now the batch and stream readers': no value any of
// them produced changes, since encoding/json reads an integer "-0" as 0 too
// and an int32 of 11 or more digits is out of range either way. The snapshot
// still declines a "-0" map key, by its own rule (snapshot_scan.go's keyed).
func TestDeclinesDidNotMove(t *testing.T) {
	const (
		x = false // goes to encoding/json
		o = true  // the caller's own reader takes it
	)
	for _, tc := range []struct {
		lit string
		// Int(8), Int(32), Int(64), Float(32), Float(64), in readers' order.
		take [5]bool
	}{
		{"0", [5]bool{o, o, o, o, o}},
		{"-0", [5]bool{o, o, o, o, o}}, // the snapshot reader declined it as an integer
		{"7", [5]bool{o, o, o, o, o}},
		{"007", [5]bool{x, x, x, x, x}},
		{"-07", [5]bool{x, x, x, x, x}},
		{"+1", [5]bool{x, x, x, x, x}},
		{"-", [5]bool{x, x, x, x, x}},
		{"", [5]bool{x, x, x, x, x}},
		{".5", [5]bool{x, x, x, x, x}},
		{"5.", [5]bool{x, x, x, x, x}},
		{"1e", [5]bool{x, x, x, x, x}},
		{"1e+", [5]bool{x, x, x, x, x}},
		{"1E+2", [5]bool{x, x, x, o, o}},
		{"1.0", [5]bool{x, x, x, o, o}},
		{"127", [5]bool{o, o, o, o, o}},
		{"128", [5]bool{x, o, o, o, o}},
		{"-128", [5]bool{o, o, o, o, o}},
		{"-129", [5]bool{x, o, o, o, o}},
		{"2147483647", [5]bool{x, o, o, o, o}},
		{"2147483648", [5]bool{x, x, o, o, o}},
		{"-2147483648", [5]bool{x, o, o, o, o}},
		{"-2147483649", [5]bool{x, x, o, o, o}},
		{"99999999999", [5]bool{x, x, o, o, o}},          // 11 digits: past the snapshot reader's cap
		{"999999999999999999", [5]bool{x, x, o, o, o}},   // 18 digits: the integer cap
		{"-999999999999999999", [5]bool{x, x, o, o, o}},  //
		{"1000000000000000000", [5]bool{x, x, x, o, o}},  // 19 digits: encoding/json's to read
		{"9223372036854775807", [5]bool{x, x, x, o, o}},  //
		{"-9223372036854775808", [5]bool{x, x, x, o, o}}, //
		{"123456789012345", [5]bool{x, x, o, o, o}},      // 15 digits: the exact quotient
		{"0.000000000000001", [5]bool{x, x, x, o, o}},    // 16 digits: the ParseFloat path
		{"12345678901234567", [5]bool{x, x, o, o, o}},
		{"0.1234567890123456789", [5]bool{x, x, x, o, o}},
		{"1e39", [5]bool{x, x, x, x, o}}, // past float32's range
		{"1e999", [5]bool{x, x, x, x, x}},
		{"1e-999", [5]bool{x, x, x, o, o}}, // underflow is 0, not an error
		{"NaN", [5]bool{x, x, x, x, x}},
		{"0x10", [5]bool{x, x, x, x, x}},
	} {
		for i, r := range readers {
			c := Cursor{B: []byte(tc.lit)}
			_, ok := r.read(&c)
			if took := ok && c.I == len(tc.lit); took != tc.take[i] {
				t.Errorf("%s on %q: takes it %v, want %v", r.name, tc.lit, took, tc.take[i])
			}
		}
		checkNumber(t, []byte(tc.lit))
	}
}
