package nn

// cpuHasLanes reports whether the processor and the operating system run
// the lane kernels: AVX2 and FMA, and an OS that saves the YMM registers
// (OSXSAVE, XCR0's SSE and AVX state bits). It is also the condition under
// which math.Exp takes the FMA branch exp4 replays.
func cpuHasLanes() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (lo, hi uint32)

// tile4 runs the lane tile over rows × cols of out (both multiples of four,
// steps > 0); tile, in lanes.go, is its bounds-checked entry.
//
//go:noescape
func tile4(out, x, y, bias *float64, rows, cols, steps, outRow, xRow, xStep, yStep int, scale float64, flags int)

// exp4 writes dst[j] = math.Exp(src[j]-shift[j%4]) four elements at a
// time, from the start of src, and stops before the first group of four
// that has a lane off math.Exp's normal-result path, or fewer than four
// elements left; it returns how many elements it wrote. len(dst) >=
// len(src); dst may be src.
//
//go:noescape
func exp4(dst, src []float64, shift *[4]float64) int

// The row lanes (lanes.go): p, x, o, g, h and d hold four rows
// interleaved, len a positive multiple of four.

// rowMax4 writes each lane's maximum to max, in softmaxRow's order.
//
//go:noescape
func rowMax4(max *[4]float64, p []float64)

// sumDivide4 divides each lane by its sum taken left to right from +0.
//
//go:noescape
func sumDivide4(p []float64)

// softmaxBack4 writes d = o·(g − Σ g·o) per lane; d may be g.
//
//go:noescape
func softmaxBack4(d, o, g []float64)

// layerNorm4 normalizes each lane of x in place into x̂, writes gain·x̂ +
// bias to o and 1/σ to invStd; gain and bias have len(x)/4 elements.
//
//go:noescape
func layerNorm4(x, o []float64, gain, bias *float64, eps float64, invStd *[4]float64)

// layerNormBack4 writes the input gradient of each lane to dx from the
// upstream gradient g and x̂ in h; gain has len(g)/4 elements.
//
//go:noescape
func layerNormBack4(dx, g, h []float64, gain *float64, invStd *[4]float64)

// dot4 adds Σ_t x[c·xLane + t·xStep] · y[t·yStep], t ascending, to
// acc[c] for the four lanes c, dropping a term whose x == 0; steps > 0.
//
//go:noescape
func dot4(acc *[4]float64, x, y *float64, steps, xLane, xStep, yStep int)

// tanh4 writes dst[j] = math.Tanh(src[j]) for the first len(src) &^ 3
// elements and returns that count; len(dst) >= len(src).
//
//go:noescape
func tanh4(dst, src []float64) int

// tanhBack4 adds g[j]·(1 − y[j]²) into ga[j] for the first len(g) &^ 3
// elements and returns that count; ga and y are at least as long as g.
//
//go:noescape
func tanhBack4(ga, g, y []float64) int

// interleave4Rows writes p[4j+r] = rows[r·stride + j], deinterleave4Rows
// the reverse, and addDeinterleave4Rows adds p[4j+r] into rows[r·stride + j],
// for the len(p)/4 elements j of each of four rows; interleave4,
// deinterleave4 and addDeinterleaved4, in lanes.go, are their bounds-checked
// entries.
//
//go:noescape
func interleave4Rows(p []float64, rows *float64, stride int)

//go:noescape
func deinterleave4Rows(p []float64, rows *float64, stride int)

//go:noescape
func addDeinterleave4Rows(p []float64, rows *float64, stride int)
