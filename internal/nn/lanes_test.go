package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelPaths lists the kernel paths this processor can run: the Go
// kernels, and the lane kernels where cpuHasLanes.
func kernelPaths() []bool {
	if cpuHasLanes() {
		return []bool{false, true}
	}
	return []bool{false}
}

// setLanes switches the lane path on or off and returns the function that
// puts the previous setting back.
func setLanes(on bool) (restore func()) {
	saved := lanes
	lanes = on
	return func() { lanes = saved }
}

// runKernelPaths runs f as one subtest per kernel path, "go" and "avx2".
func runKernelPaths(t *testing.T, f func(t *testing.T)) {
	for _, on := range kernelPaths() {
		name := "go"
		if on {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			defer setLanes(on)()
			f(t)
		})
	}
}

// expSpecial are the values math.Exp answers off its normal path or at
// the edges of it: the special cases, either side of exp4's lower bound
// (e = −1022, x ≈ −708.4) and of the rounding of e there, either side of
// the overflow at ≈ 709.78, and subnormal and extreme arguments.
var expSpecial = []float64{
	math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), math.Inf(1),
	-1022 * math.Ln2, math.Nextafter(-1022*math.Ln2, 0), math.Nextafter(-1022*math.Ln2, -800),
	-1022.5 * math.Ln2, math.Nextafter(-1022.5*math.Ln2, 0), math.Nextafter(-1022.5*math.Ln2, -800),
	7.09782712893384e+02, math.Nextafter(7.09782712893384e+02, 0), math.Nextafter(7.09782712893384e+02, 800),
	1023.5 * math.Ln2, math.Nextafter(1023.5*math.Ln2, 0),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -1e-310, math.MaxFloat64, -math.MaxFloat64,
}

// TestExp4MatchesMathExp holds expShifted, and exp4 under it, to math.Exp
// bit for bit over a dense sweep of [−750, 0] in steps of 1e-4 — through
// exp4's lower bound, the subnormal results below it and the underflow to
// zero below −745.2 — a coarser one of (0, 750], each special value set
// among normal ones (its whole group goes back to math.Exp), and random
// arguments under the shifts softmax subtracts.
func TestExp4MatchesMathExp(t *testing.T) {
	if !cpuHasLanes() {
		t.Skip("no AVX2/FMA: exp4 never runs here")
	}
	// exp4 itself, whatever the start-up check decided.
	defer setLanes(true)()
	defer func(saved bool) { laneExp = saved }(laneExp)
	laneExp = true
	src, got := make([]float64, 1<<16), make([]float64, 1<<16)
	check := func(xs []float64, shift float64) {
		t.Helper()
		expShifted(got, xs, &[4]float64{shift, shift, shift, shift})
		for i, x := range xs {
			if want := math.Exp(x - shift); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("exp(%v − %v) = %v (%#x), math.Exp %v (%#x)",
					x, shift, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	}
	const steps = 7_500_000
	for base := 0; base <= steps; base += len(src) {
		xs := src[:min(len(src), steps+1-base)]
		for i := range xs {
			xs[i] = -750 + float64(base+i)*1e-4
		}
		check(xs, 0)
		// exp4 itself, not its fallback, takes everything in [−708, 0).
		if xs[0] >= -708 && xs[len(xs)-1] < 0 {
			if n := exp4(got, xs, &[4]float64{}); n != len(xs)&^3 {
				t.Fatalf("exp4 stopped at %v", xs[n])
			}
		}
	}
	xs := src[:0]
	for i := 1; i <= 37_500; i++ {
		xs = append(xs, float64(i)*2e-2)
	}
	check(xs, 0)
	xs = xs[:0]
	for i, x := range expSpecial {
		xs = append(xs, -1, -2.5, x, -float64(i))
	}
	check(xs, 0)
	rng := rand.New(rand.NewSource(44))
	for i := range src {
		src[i] = rng.NormFloat64() * 20
	}
	for _, shift := range []float64{0, 3.25, -17, 59.9, math.Copysign(0, -1)} {
		check(src, shift)
	}
}

// The start-up check is what turns exp4 off when math.Exp changes under
// it: a reference one ulp off on a single probe must fail it.
func TestExp4SelfCheckTurnsItOff(t *testing.T) {
	if !cpuHasLanes() {
		t.Skip("no AVX2/FMA: exp4 never runs here")
	}
	if !laneExp || !exp4Agrees(math.Exp) {
		t.Fatal("exp4 disagrees with math.Exp on its probes")
	}
	for _, probe := range []float64{0, expProbes[len(expProbes)/2], expProbes[len(expProbes)-1]} {
		moved := func(x float64) float64 {
			if x == probe {
				return math.Nextafter(math.Exp(x), math.Inf(1))
			}
			return math.Exp(x)
		}
		if exp4Agrees(moved) {
			t.Fatalf("the self-check passed an exp one ulp off at %v", probe)
		}
	}
}

// BenchmarkKernels times each kernel at LocMatcher's shapes (m×k×n: the
// candidate count 29 by the widths 4, 8 and 32, attention's 29×29×4
// probabilities·values, and the two products narrower than a tile, the time
// embedding's 29×24×3 and the score's 29×32×1) on both paths, a 29-wide
// softmax row, and the row ops at their shapes (m×n): attention's 29×29
// softmax, layer norm over z = 8, ReLU and tanh over 32 units.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(45))
	for _, on := range kernelPaths() {
		path := "go"
		if on {
			path = "avx2"
		}
		restore := setLanes(on)
		for _, s := range [][3]int{{29, 8, 4}, {29, 8, 8}, {29, 8, 32}, {29, 32, 8}, {29, 29, 4}, {29, 24, 3}, {29, 32, 1}} {
			m, k, n := s[0], s[1], s[2]
			a, w, g := awkward(rng, m*k, k), awkward(rng, k*n, n), awkward(rng, m*n, n)
			out, ga, gw := make([]float64, m*n), make([]float64, m*k), make([]float64, k*n)
			wT := make([]float64, k*n)
			shape := fmt.Sprintf("%dx%dx%d", m, k, n)
			b.Run(path+"/forward/"+shape, func(b *testing.B) {
				for range b.N {
					matMulRows(out, a, w, nil, k, n, 0, m)
				}
			})
			b.Run(path+"/dA/"+shape, func(b *testing.B) {
				for range b.N {
					if lanesFit(m, k, n) {
						transposeInto(wT, w, k, n)
					}
					matMulGradA(ga, g, w, wT, k, n, 0, m)
				}
			})
			b.Run(path+"/dB/"+shape, func(b *testing.B) {
				for range b.N {
					matMulGradB(gw, a, g, m, k, n, 0, k)
				}
			})
		}
		// q·kᵀ/√d over two heads of four: q [29,4], k [29,4].
		m, d, n := 29, 4, 29
		q, kk, g := awkward(rng, m*d, d), awkward(rng, n*d, d), awkward(rng, m*n, n)
		out, gq, gk, kT := make([]float64, m*n), make([]float64, m*d), make([]float64, n*d), make([]float64, n*d)
		b.Run(path+"/qkT/29x4x29", func(b *testing.B) {
			for range b.N {
				if lanesFit(m, n, d) {
					transposeInto(kT, kk, n, d)
				}
				scaledMatMulT(out, q, kk, kT, 0.5, m, d, n)
			}
		})
		b.Run(path+"/qkT_dA/29x4x29", func(b *testing.B) {
			for range b.N {
				scaledMatMulTGradA(gq, g, kk, 0.5, m, d, n)
			}
		})
		b.Run(path+"/qkT_dB/29x4x29", func(b *testing.B) {
			for range b.N {
				scaledMatMulTGradB(gk, q, g, 0.5, m, d, n)
			}
		})
		row, probs := awkward(rng, 29, 29), make([]float64, 29)
		b.Run(path+"/softmax/29", func(b *testing.B) {
			for range b.N {
				softmaxRow(probs, row)
			}
		})
		benchRowOps(b, rng, path)
		restore()
	}
}

// benchRowOps runs the row-op rows of BenchmarkKernels on the current path.
func benchRowOps(b *testing.B, rng *rand.Rand, path string) {
	run := func(name string, f func()) {
		b.Run(path+"/"+name, func(b *testing.B) {
			for range b.N {
				f()
			}
		})
	}
	// Attention's scores, 29 candidates by 29.
	m, n := 29, 29
	x, g, ga := awkward(rng, m*n, n), awkward(rng, m*n, n), make([]float64, m*n)
	probs, buf := make([]float64, m*n), make([]float64, 8*n)
	run("softmax/29x29", func() { softmaxRowsInto(probs, x, buf, m, n) })
	run("softmax_back/29x29", func() { softmaxRowsBackInto(ga, probs, g, buf, m, n) })
	// Layer norm over z = 8, both input gradients, gain and bias.
	m, n = 29, 8
	ln, xhat, out, invStd := awkward(rng, m*n, n), make([]float64, m*n), make([]float64, m*n), make([]float64, m)
	gain, bias, gg, gb := awkward(rng, n, n), awkward(rng, n, n), make([]float64, n), make([]float64, n)
	lg, la, lb := awkward(rng, m*n, n), make([]float64, m*n), make([]float64, m*n)
	run("layernorm/29x8", func() { layerNormRows(out, xhat, invStd, ln, gain, bias, buf, m, n, 1e-5) })
	run("layernorm_back/29x8", func() { layerNormRowsBack(la, lb, gg, gb, lg, xhat, invStd, gain, buf, m, n) })
	// The feed-forward units (ReLU) and the additive attention's (tanh).
	m, n = 29, 32
	x, g, ga, out = awkward(rng, m*n, n), awkward(rng, m*n, n), make([]float64, m*n), make([]float64, m*n)
	run("relu/29x32", func() { reluInto(out, x) })
	run("relu_back/29x32", func() { reluBackInto(ga, x, g) })
	run("tanh/29x32", func() { tanhInto(out, x) })
	run("tanh_back/29x32", func() { tanhBackInto(ga, out, g) })
}
