package deploy

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"dlinfma/internal/deploy/api"
)

// streamLines sit on every branch of the line scanner: the three canonical
// forms, the number grammar's corners (both exact and ParseFloat paths), and
// the near misses that must fall through to encoding/json.
var streamLines = []string{
	`{"courier":5,"x":1,"y":2,"t":100}`,
	`{"courier":5,"end":true}`,
	`{"courier":0,"x":0,"y":0,"t":0,"end":true}`,
	`{"courier":-12,"x":-116397.53,"y":39908.07,"t":1622505600.125}`,
	`{"courier":7,"x":1e2,"y":1E-7,"t":2.5e+3}`,
	`{"courier":7,"x":-0,"y":-0.0,"t":0.000001}`,
	`{"courier":7,"x":123456789012345,"y":1234567890123456,"t":0.1234567890123456789}`,
	`{"courier":7,"x":1e400,"y":0,"t":0}`,
	`{"courier":7,"x":1e-400,"y":4.9e-324,"t":1.7976931348623157e308}`,
	`{"courier":123456789012345678,"x":0,"y":0,"t":0}`,
	`{"courier":1234567890123456789,"x":0,"y":0,"t":0}`,
	`{"courier":-0,"end":true}`,
	`{"courier":007,"x":0,"y":0,"t":0}`,
	`{"courier":7,"x":01,"y":0,"t":0}`,
	`{"courier":7,"x":1.,"y":0,"t":0}`,
	`{"courier":7,"x":.5,"y":0,"t":0}`,
	`{"courier":7,"x":1e,"y":0,"t":0}`,
	`{"courier":7,"x":+1,"y":0,"t":0}`,
	`{"courier":7,"courier":8,"x":0,"y":0,"t":0}`,
	`{"courier":7,"x":1,"x":2,"y":0,"t":0}`,
	`{"courier":7,"x":null,"y":0,"t":0}`,
	`{"courier":null,"end":true}`,
	`{"courier":7,"end":false}`,
	`{"courier":7,"end":true}}`,
	`{"courier":7,"x":1,"y":2,"t":3} `,
	`{"courier":7,"x":1,"y":2,"t":3}x`,
	`{"courier":7,"x":1,"y":2}`,
	`{"courier":7,"y":2,"x":1,"t":3}`,
	`{"courier":7, "x":1,"y":2,"t":3}`,
	`{"courier":7.0,"x":1,"y":2,"t":3}`,
	`{"courier":"7","x":1,"y":2,"t":3}`,
	`{"Courier":7,"X":1,"Y":2,"T":3}`,
	`{"courier":`,
	`{"courier":-`,
	`{"courier":7,"x":1,"y":2,"t":`,
	`null`,
	``,
}

// checkStreamLine holds the scanner to its contract on one line: it either
// declines, or returns exactly the api.StreamPoint json.Unmarshal decodes
// without error (floats compared by bits, so -0 is not 0).
func checkStreamLine(t *testing.T, line []byte) {
	t.Helper()
	got, ok := scanStreamLine(line)
	if !ok {
		return
	}
	var want api.StreamPoint
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("scanner accepted %q, encoding/json says %v", line, err)
	}
	if got.Courier != want.Courier || got.End != want.End ||
		math.Float64bits(got.X) != math.Float64bits(want.X) ||
		math.Float64bits(got.Y) != math.Float64bits(want.Y) ||
		math.Float64bits(got.T) != math.Float64bits(want.T) {
		t.Fatalf("line %q:\n scanner       %+v\n encoding/json %+v", line, got, want)
	}
}

// TestStreamLineScanner runs the table, and pins that the forms producers
// write are scanned, not declined — a scanner that declines everything would
// pass the equivalence check and cost the whole gain.
func TestStreamLineScanner(t *testing.T) {
	for _, line := range streamLines {
		checkStreamLine(t, []byte(line))
	}
	marshalled, err := json.Marshal(api.StreamPoint{Courier: 9, End: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range append(streamLines[:7:7], string(marshalled), `{"courier":-2147483648,"x":1.5,"y":-2,"t":3}`) {
		if _, ok := scanStreamLine([]byte(line)); !ok {
			t.Errorf("canonical line %q was declined", line)
		}
	}
}

// TestStreamLineScannerDecimals drives the exact-quotient float path with
// the literals it exists for — short decimals, as a GPS producer prints them
// — and the ParseFloat path just past its 15-digit edge.
func TestStreamLineScannerDecimals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lit := func() string {
		digits := strconv.FormatUint(rng.Uint64()%uint64(math.Pow10(1+rng.Intn(17))), 10)
		if frac := rng.Intn(len(digits) + 3); frac > 0 {
			for len(digits) <= frac {
				digits = "0" + digits
			}
			digits = digits[:len(digits)-frac] + "." + digits[len(digits)-frac:]
		}
		if rng.Intn(2) == 0 {
			digits = "-" + digits
		}
		return digits
	}
	for i := 0; i < 50000; i++ {
		line := `{"courier":` + strconv.Itoa(rng.Intn(1<<20)-1<<19) + `,"x":` + lit() + `,"y":` + lit() + `,"t":` + lit() + `}`
		if _, ok := scanStreamLine([]byte(line)); !ok {
			t.Fatalf("canonical line %q was declined", line)
		}
		checkStreamLine(t, []byte(line))
	}
}

func FuzzStreamLineDecode(f *testing.F) {
	for _, line := range streamLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkStreamLine(t, line)
	})
}
