package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The row ops — softmax and its backward, layer norm and its backward, ReLU,
// tanh and dropout — against their textbook loops (oracles_test.go), bit for
// bit, on both kernel paths: the row lanes take four rows at a time, the
// rest of the rows stay in Go, and ReLU and dropout select where the
// references branch.

// rowSpecials are the values a row op meets off the normal path: signed
// zeros, NaN, the infinities, subnormals and magnitudes whose exponentials
// and squares overflow or underflow.
var rowSpecials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -1e-310, 1e300, -1e300, 800, -800, 44.5, -0.625,
}

// rowValues returns m rows of n: awkward's draws (zeros, −0, ReLU-sparse
// rows) with every fifth row salted with rowSpecials.
func rowValues(rng *rand.Rand, m, n int) []float64 {
	d := awkward(rng, m*n, n)
	for i := 4; i < m; i += 5 {
		for j := 0; j < n; j += 1 + rng.Intn(3) {
			d[i*n+j] = rowSpecials[rng.Intn(len(rowSpecials))]
		}
	}
	return d
}

// rowOperands is one row op check's inputs: x [m,n] (a layer norm's two
// addends are x and y), g the upstream gradient, ga0 what the operand
// gradients hold before a backward (which must add to it), gain and bias
// [n].
type rowOperands struct {
	m, n                   int
	x, y, g, ga0, gb0, gn0 []float64
	gain, bias             []float64
}

func drawRowOperands(rng *rand.Rand, m, n int) rowOperands {
	return rowOperands{
		m: m, n: n,
		x: rowValues(rng, m, n), y: awkward(rng, m*n, n), g: rowValues(rng, m, n),
		ga0: awkward(rng, m*n, n), gb0: awkward(rng, m*n, n), gn0: awkward(rng, 2*n, n),
		gain: awkward(rng, n, n), bias: awkward(rng, n, n),
	}
}

// param returns a parameter over a copy of data whose gradient starts as
// a copy of grad.
func param(data, grad []float64, shape ...int) *Tensor {
	t := NewParam(append([]float64(nil), data...), shape...)
	copy(t.Grad, grad)
	return t
}

// backOnce runs out's own backward step with upstream gradient g.
func backOnce(out *Tensor, g []float64) {
	out.Grad = append([]float64(nil), g...)
	out.back(out)
}

// checkRowOps holds every row op to its reference on o; differ reports the
// first differing index of two slices or -1.
func checkRowOps(t testing.TB, o rowOperands, differ func(got, want []float64) int) {
	t.Helper()
	m, n := o.m, o.n
	fail := func(what string, got, want []float64) {
		t.Helper()
		if i := differ(got, want); i >= 0 {
			t.Fatalf("%s %dx%d: element %d = %v (%#x), reference %v (%#x)", what, m, n, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	rows := func(f func(i int, lo, hi int)) {
		for i := 0; i < m; i++ {
			f(i, i*n, i*n+n)
		}
	}

	// softmax, forward and backward, over x's rows.
	want := make([]float64, m*n)
	rows(func(_, lo, hi int) { refSoftmaxRow(want[lo:hi], o.x[lo:hi]) })
	got := make([]float64, m*n)
	softmaxRowsInto(got, o.x, make([]float64, 4*n), m, n)
	fail("softmax", got, want)
	probs := want
	wantG := append([]float64(nil), o.ga0...)
	rows(func(_, lo, hi int) { refSoftmaxRowBack(wantG[lo:hi], probs[lo:hi], o.g[lo:hi]) })
	gotG := append([]float64(nil), o.ga0...)
	softmaxRowsBackInto(gotG, probs, o.g, make([]float64, 8*n), m, n)
	fail("softmax backward", gotG, wantG)

	// AddLayerNorm, forward and all four gradients, over x + y.
	const eps = 1e-5
	sum, wantX, wantStd := make([]float64, m*n), make([]float64, m*n), make([]float64, m)
	for i := range sum {
		sum[i] = o.x[i] + o.y[i]
	}
	rows(func(i, lo, hi int) {
		wantStd[i] = refLayerNormRow(want[lo:hi], wantX[lo:hi], sum[lo:hi], o.gain, o.bias, eps)
	})
	a, b := param(o.x, o.ga0, m, n), param(o.y, o.gb0, m, n)
	gain, bias := param(o.gain, o.gn0[:n], n), param(o.bias, o.gn0[n:], n)
	out := AddLayerNorm(a, b, gain, bias, eps)
	fail("layer norm", out.Data, want)
	fail("layer norm x̂", out.saved[0], wantX)
	fail("layer norm 1/σ", out.saved[1], wantStd)
	backOnce(out, o.g)
	wantA, wantB := append([]float64(nil), o.ga0...), append([]float64(nil), o.gb0...)
	wantGain, wantBias := append([]float64(nil), o.gn0[:n]...), append([]float64(nil), o.gn0[n:]...)
	dx := make([]float64, n)
	rows(func(i, lo, hi int) {
		refLayerNormRowBack(dx, wantGain, wantBias, o.g[lo:hi], wantX[lo:hi], o.gain, wantStd[i])
		for j, d := range dx {
			wantA[lo+j] += d
			wantB[lo+j] += d
		}
	})
	fail("layer norm dA", a.Grad, wantA)
	fail("layer norm dB", b.Grad, wantB)
	fail("layer norm dGain", gain.Grad, wantGain)
	fail("layer norm dBias", bias.Grad, wantBias)

	// ReLU and tanh, forward and backward, over x.
	for _, op := range []struct {
		name    string
		fwd     func(*Tensor) *Tensor
		ref     func(out, a []float64)
		refBack func(ga, a, y, g []float64)
	}{
		{"relu", ReLU, refReLU, func(ga, a, _, g []float64) { refReLUBack(ga, a, g) }},
		{"tanh", Tanh, refTanh, func(ga, _, y, g []float64) { refTanhBack(ga, y, g) }},
	} {
		op.ref(want, o.x)
		a := param(o.x, o.ga0, m, n)
		out := op.fwd(a)
		fail(op.name, out.Data, want)
		backOnce(out, o.g)
		copy(wantG, o.ga0)
		op.refBack(wantG, o.x, want, o.g)
		fail(op.name+" backward", a.Grad, wantG)
	}

	// dropout at p = 0.1 and 0.5, mask and both directions, from one seed.
	for _, p := range []float64{0.1, 0.5} {
		mask := make([]float64, m*n)
		refDropoutMask(mask, p, rand.New(rand.NewSource(int64(m*n))))
		for i := range want {
			want[i] = o.x[i] * mask[i]
		}
		a := param(o.x, o.ga0, m, n)
		out := Dropout(a, p, true, rand.New(rand.NewSource(int64(m*n))))
		fail("dropout mask", out.saved[0], mask)
		fail("dropout", out.Data, want)
		backOnce(out, o.g)
		copy(wantG, o.ga0)
		for i := range wantG {
			wantG[i] += o.g[i] * mask[i]
		}
		fail("dropout backward", a.Grad, wantG)
	}
}

// rowOpShapes yields every row count 1…70 and every width 1…62, each with a
// drawn partner, LocMatcher's own 29×29, 29×8 and 29×32, and the row counts
// either side of a lane group at every narrow width.
func rowOpShapes(rng *rand.Rand) [][2]int {
	out := [][2]int{{29, 29}, {29, 8}, {29, 32}, {28, 8}, {1, 1}}
	for m := 1; m <= 70; m++ {
		out = append(out, [2]int{m, 1 + rng.Intn(62)})
	}
	for n := 1; n <= 62; n++ {
		out = append(out, [2]int{1 + rng.Intn(70), n})
	}
	for _, m := range []int{3, 4, 5, 7, 8, 9} {
		for n := 1; n <= 5; n++ {
			out = append(out, [2]int{m, n})
		}
	}
	return out
}

// Every NaN counts as equal to every other (sameBitsOrNaN): which of two NaN
// operands' payloads a sum keeps is the instruction selector's business, and
// two Go loops over the same row already differ in it.
func TestRowOpsMatchReferenceLoops(t *testing.T) {
	runKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(46))
		for _, s := range rowOpShapes(rng) {
			checkRowOps(t, drawRowOperands(rng, s[0], s[1]), sameBitsOrNaN)
		}
	})
}

// FuzzRowOps turns bytes into (m, n, values) and holds every row op to its
// reference loop bit for bit, on the Go path and on the lane path where the
// processor has it. Values come from fuzzValues and rowSpecials, so rows
// meet NaN, the infinities, signed zeros and subnormals in any position.
func FuzzRowOps(f *testing.F) {
	for _, s := range [][2]int{{1, 1}, {4, 1}, {5, 3}, {8, 8}, {29, 8}, {29, 29}, {9, 32}, {70, 62}} {
		f.Add([]byte{byte(s[0] - 1), byte(s[1] - 1), 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32})
	}
	pool := append(append([]float64(nil), fuzzValues[:]...), rowSpecials...)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m, n := 1+int(data[0])%70, 1+int(data[1])%62
		vals, at := data[2:], 0
		draw := func(count int) []float64 {
			d := make([]float64, count)
			for i := range d {
				d[i] = pool[int(vals[at%len(vals)])%len(pool)]
				at++
			}
			return d
		}
		o := rowOperands{
			m: m, n: n, x: draw(m * n), y: draw(m * n), g: draw(m * n),
			ga0: draw(m * n), gb0: draw(m * n), gn0: draw(2 * n), gain: draw(n), bias: draw(n),
		}
		for _, on := range kernelPaths() {
			restore := setLanes(on)
			checkRowOps(t, o, sameBitsOrNaN)
			restore()
		}
	})
}

// TestTanh4MatchesMathTanh holds Tanh, and tanh4 under it, to math.Tanh bit
// for bit across all three of math.tanh's regimes: a dense sweep of
// [−1, 1] through the rational form and its 0.625 bound, a sweep of
// [−50, 50] through the exponential form and the ±1 above 0.5·MAXLOG, each
// bound and its neighbours, the special values among ordinary ones, and
// random arguments.
func TestTanh4MatchesMathTanh(t *testing.T) {
	if !cpuHasLanes() {
		t.Skip("no AVX2/FMA: tanh4 never runs here")
	}
	defer setLanes(true)()
	defer func(saved bool) { laneTanh = saved }(laneTanh)
	laneTanh = true
	check := func(xs []float64) {
		t.Helper()
		if n := tanh4(make([]float64, len(xs)), xs); n != len(xs)&^3 {
			t.Fatalf("tanh4 wrote %d of %d", n, len(xs))
		}
		got := Tanh(NewTensor(xs, len(xs))).Data
		for i, x := range xs {
			if want := math.Tanh(x); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("tanh(%v) = %v (%#x), math.Tanh %v (%#x)",
					x, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	}
	var xs []float64
	for i := -1_000_000; i <= 1_000_000; i++ {
		xs = append(xs, float64(i)*1e-6)
	}
	check(xs)
	xs = xs[:0]
	for i := -500_000; i <= 500_000; i++ {
		xs = append(xs, float64(i)*1e-4)
	}
	check(xs)
	big := 0.5 * 8.8029691931113054295988e+01
	xs = xs[:0]
	for _, b := range []float64{0.625, big, 0} {
		for _, x := range []float64{b, -b} {
			lo, hi := x, x
			for range 8 {
				xs = append(xs, lo, hi)
				lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			}
		}
	}
	for i, x := range append(rowSpecials, expSpecial...) {
		xs = append(xs, 0.3, -2.5, x, -float64(i))
	}
	check(xs)
	rng := rand.New(rand.NewSource(47))
	xs = xs[:0]
	for range 1 << 16 {
		xs = append(xs, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(9)-6)))
	}
	check(xs)
}

// The start-up check is what turns tanh4 off when math.Tanh (or math.Exp
// under it) changes: a reference one ulp off on any single probe, in any of
// the three regimes, must fail it.
func TestTanh4SelfCheckTurnsItOff(t *testing.T) {
	if !cpuHasLanes() {
		t.Skip("no AVX2/FMA: tanh4 never runs here")
	}
	if !laneTanh || !tanh4Agrees(math.Tanh) {
		t.Fatal("tanh4 disagrees with math.Tanh on its probes")
	}
	for _, probe := range tanhProbes {
		moved := func(x float64) float64 {
			if math.Float64bits(x) == math.Float64bits(probe) {
				return math.Nextafter(math.Tanh(x), math.Inf(1))
			}
			return math.Tanh(x)
		}
		if tanh4Agrees(moved) {
			t.Fatalf("the self-check passed a tanh one ulp off at %v", probe)
		}
	}
}
