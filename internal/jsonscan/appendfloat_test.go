package jsonscan

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// shortest is the definition AppendFloat is held to: the bytes encoding/json
// prints for a float64 between 1e-6 and 1e21.
func shortest(v float64) []byte { return strconv.AppendFloat(nil, v, 'f', -1, 64) }

// checkAppendFloat holds one value to the definition: whenever AppendFloat
// answers, it appended exactly strconv's bytes after what b held; when it
// declines, b is as it was.
func checkAppendFloat(t *testing.T, v float64) (taken bool) {
	t.Helper()
	prefix := []byte(`"x":`)
	got, ok := AppendFloat(prefix, v)
	if string(got[:len(prefix)]) != string(prefix) {
		t.Fatalf("AppendFloat(%v) overwrote its prefix: %q", v, got)
	}
	if !ok {
		if len(got) != len(prefix) {
			t.Fatalf("AppendFloat(%v) declined but appended %q", v, got[len(prefix):])
		}
		return false
	}
	if want := shortest(v); string(got[len(prefix):]) != string(want) {
		t.Fatalf("AppendFloat(%v (bits %#x)) = %q, strconv says %q", v, math.Float64bits(v), got[len(prefix):], want)
	}
	return true
}

// shortDecimal is the float64 of ±mantissa·10^−frac, the way a reader of the
// decimal literal gets it, and whether that literal has at most 15
// significant digits and lies in [1, 1e15) — the values AppendFloat must take.
func shortDecimal(mantissa uint64, frac int, neg bool) (float64, bool) {
	lit := strconv.FormatUint(mantissa, 10)
	if frac > 0 {
		for len(lit) <= frac {
			lit = "0" + lit
		}
		lit = lit[:len(lit)-frac] + "." + lit[len(lit)-frac:]
	}
	if neg {
		lit = "-" + lit
	}
	v, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		panic(err)
	}
	a := math.Abs(v)
	digits := len(strconv.FormatUint(mantissa, 10))
	return v, a >= 1 && a < 1e15 && digits <= 15
}

// FuzzAppendFloat draws a decimal — mantissa, number of fraction digits,
// sign — and moves it by a few ulps, so both sides are exercised: the
// decimal itself, which AppendFloat must take when it has at most 15
// significant digits in [1, 1e15), and its neighbours, which it must decline
// or print as strconv does.
func FuzzAppendFloat(f *testing.F) {
	for _, s := range []struct {
		mantissa uint64
		frac     uint8
		neg      bool
		nudge    int8
	}{
		{999999999999999, 0, false, 0}, // the largest taken
		{1, 0, false, 0},               // the smallest taken
		{1, 0, false, -1},              // just below 1: declined
		{9999999999999998, 15, false, 0},
		{1234567, 2, true, 0}, // -12345.67, a centimetre coordinate
		{1234567, 2, false, 1},
		{1000000000000000, 0, false, 0}, // 1e15: declined
		{123456789012345, 7, false, -1},
		{5, 1, false, 0}, // 0.5: below 1, declined
	} {
		f.Add(s.mantissa, s.frac, s.neg, s.nudge)
	}
	f.Fuzz(func(t *testing.T, mantissa uint64, frac uint8, neg bool, nudge int8) {
		mantissa %= 1e17
		v, short := shortDecimal(mantissa, int(frac%18), neg)
		exact := nudge == 0
		for ; nudge > 0; nudge-- {
			v = math.Nextafter(v, math.Inf(1))
		}
		for ; nudge < 0; nudge++ {
			v = math.Nextafter(v, math.Inf(-1))
		}
		if taken := checkAppendFloat(t, v); short && exact && !taken {
			t.Fatalf("AppendFloat declined %v, a decimal of at most 15 digits", v)
		}
	})
}

// TestAppendFloatTakesEveryShortDecimal is the completeness half: a printer
// that declined everything would pass every byte-identity check, so over a
// million seeded decimals of at most 15 significant digits in [1, 1e15) —
// every integer-digit count, every fraction length that fits — each must be
// taken.
func TestAppendFloatTakesEveryShortDecimal(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 100_000
	}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < draws; i++ {
		n := 1 + rng.Intn(15)    // integer digits
		k := rng.Intn(16 - n)    // fraction digits
		lo := uint64(pow10[n-1]) // the integer part has exactly n digits
		ip := lo + uint64(rng.Int63n(int64(9*lo)))
		mantissa := ip*uint64(pow10[k]) + uint64(rng.Int63n(int64(pow10[k])))
		v, short := shortDecimal(mantissa, k, rng.Intn(2) == 0)
		if !short {
			t.Fatalf("draw %d: %d·10^-%d is not a short decimal", i, mantissa, k)
		}
		if !checkAppendFloat(t, v) {
			t.Fatalf("draw %d: AppendFloat declined %v (%d·10^-%d)", i, v, mantissa, k)
		}
	}
}

// TestAppendFloatEdges pins the range's ends and the values the general path
// keeps.
func TestAppendFloatEdges(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		take bool
	}{
		{1, true},
		{-1, true},
		{999999999999999, true},
		{9.99999999999999, true},
		{99999999999999.9, true},
		{9.999999999999998, false}, // 16 digits: m rounds up to 10^15
		{-12345.67, true},
		{116.3974, true},
		{1 << 49, true},
		{1e15, false},
		{1 << 53, false},
		{math.Nextafter(1, 0), false},
		{0.5, false},
		{0, false},
		{math.Copysign(0, -1), false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{0.30000000000000004 * 10, false}, // 17 significant digits
		{math.Pi, false},
		{math.Nextafter(12345.67, 2e4), false},
	} {
		if took := checkAppendFloat(t, tc.v); took != tc.take {
			t.Errorf("AppendFloat(%v): takes it %v, want %v", tc.v, took, tc.take)
		}
	}
}

// BenchmarkAppendFloat prices the read routes' float printer beside strconv
// on the two kinds of coordinate a store serves. centimetre values (the
// benchmark city, a geocoder's output) are taken; full_precision values (pool
// centroids) are declined, and their jsonscan row is the decline plus the
// strconv call deploy.appendFloat then makes — the price of trying first.
func BenchmarkAppendFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cm := make([]float64, 1024)
	full := make([]float64, len(cm))
	for i := range cm {
		full[i] = 1 + rng.Float64()*20_000
		cm[i] = math.Round(full[i]*100) / 100
	}
	fallback := func(buf []byte, v float64) []byte {
		if out, ok := AppendFloat(buf, v); ok {
			return out
		}
		return strconv.AppendFloat(buf, v, 'f', -1, 64)
	}
	viaStrconv := func(buf []byte, v float64) []byte { return strconv.AppendFloat(buf, v, 'f', -1, 64) }
	for _, set := range []struct {
		name string
		vals []float64
	}{{"centimetre", cm}, {"full_precision", full}} {
		for _, p := range []struct {
			name  string
			print func([]byte, float64) []byte
		}{{"jsonscan", fallback}, {"strconv", viaStrconv}} {
			b.Run(set.name+"/"+p.name, func(b *testing.B) {
				buf := make([]byte, 0, 32)
				for i := 0; i < b.N; i++ {
					buf = p.print(buf[:0], set.vals[i&(len(set.vals)-1)])
				}
			})
		}
	}
}
