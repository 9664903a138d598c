package nn

import "math"

// The lane path. On amd64 processors with AVX2 and FMA (lanes_amd64.s) the
// kernels of kernels.go hand their blocks of four rows by four columns to
// one register tile, and the row-wise ops run four rows at a time. Both
// keep the order contract of the Go code they stand for lane by lane:
//
//   - a tile row holds four independent sums, one output element per lane,
//     each advanced over the same index in the same direction from the same
//     start as the Go kernel's scalar sum;
//   - every product is VMULPD then VADDPD, never a fused multiply-add;
//   - a skipped term (an operand == 0) is dropped with VBLENDVPD, so the old
//     sum stays exactly what it was — −0, NaN and the NaN of 0·Inf included;
//   - exp4 is the packed form of math.Exp's avxfma branch
//     (math/exp_amd64.s), instruction for instruction, and hands any group of
//     four with a lane off that branch's normal-result path back to math.Exp.
//
// The row lanes. softmax and its backward, layer norm and its backward, and
// the product columns a tile cannot take (fewer than four: the time
// embedding's 24×3 and the score's 32×1) put one row in each lane. Four
// rows are interleaved into scratch (interleave4), and each lane runs its
// row's scalar loop: the same operations in the same order, sums left to
// right from the same start, a maximum as compare and blend (a NaN never
// replaces it), divisions and square roots as VDIVPD and VSQRTPD, which
// round as DIVSD and SQRTSD do, exp4 with one shift per lane, so a row has
// no tail to hand to math.Exp. tanh4 replays math.tanh, which is pure Go on
// amd64: both of its formulas in every lane, no product fused, the one its
// regime returns kept by blend.
//
// Tails of fewer than four rows or columns, and empty sums, stay in the Go
// code, which remains the whole path elsewhere and the reference the tests
// hold the lanes to.

// lanes is whether the kernels use the tile and exp4: set once, from the
// processor; the tests flip it to run both paths.
var lanes = cpuHasLanes()

// laneExp is whether exp4 agreed with math.Exp bit for bit on expProbes at
// start-up. exp4 replays one branch of the standard library's assembly; a
// toolchain that changed that branch fails the check and keeps math.Exp.
var laneExp = lanes && exp4Agrees(math.Exp)

// laneTanh is whether tanh4 agreed with math.Tanh bit for bit on
// tanhProbes at start-up. tanh4 replays the standard library's Go code and
// exp4 under it; a toolchain that changed either fails the check and keeps
// math.Tanh.
var laneTanh = laneExp && tanh4Agrees(math.Tanh)

// KernelSet names the kernels this process's models run on: "avx2" for the
// lane path, "go" for the Go kernels alone.
func KernelSet() string {
	if lanes {
		return "avx2"
	}
	return "go"
}

// The tile's flags. Without tileFromOut the sums start from +0; the skip
// flags drop terms whose broadcast (x) or lane (y) operand == 0; tileScaleX
// reads x·scale in place of x; after the sum comes + bias, then ·scale with
// tileScaleSum, then a store, or an add into out with tileAddInto. The step
// takes the four forms the kernels use: no skip with or without tileScaleX,
// tileSkipX without it, and tileSkipY with it (q·kᵀ's dB alone skips on
// the lane operand).
const (
	tileFromOut = 1 << iota
	tileSkipX
	tileSkipY
	tileScaleX
	tileScaleSum
	tileAddInto
)

// lanesFit reports whether a product with this many output rows and columns
// and terms per sum has a lane block: the lanes are on, there are four rows
// and four columns, and the sums are not empty.
func lanesFit(rows, cols, steps int) bool {
	return lanes && rows >= 4 && cols >= 4 && steps > 0
}

// laneBlock returns the end of the rows [i0, i4) and of the columns [0, c4)
// the tile takes out of rows [i0, i1) by cols, or (i0, 0) when none.
func laneBlock(i0, i1, cols, steps int) (i4, c4 int) {
	if !lanesFit(i1-i0, cols, steps) {
		return i0, 0
	}
	return i0 + (i1-i0)&^3, cols &^ 3
}

// laneRows returns the end of the rows [i0, i4) that the lanes take four at
// a time out of rows [i0, i1) whose sums have this many terms, or i0 when
// none.
func laneRows(i0, i1, steps int) int {
	if !lanes || steps <= 0 {
		return i0
	}
	return i0 + (i1-i0)&^3
}

// tile computes, for the rows r < rows and lanes c < cols of out (both
// multiples of four, steps > 0),
//
//	sum = Σ_t x[r·xRow + t·xStep] · y[t·yStep + c]    t ascending
//
// under flags, and writes it to out[r·outRow + c]. Indexing each operand's
// last element here puts Go's bounds checks in front of the assembly.
func tile(out, x, y, bias []float64, rows, cols, steps, outRow, xRow, xStep, yStep int, scale float64, flags int) {
	_ = out[(rows-1)*outRow+cols-1]
	_ = x[(rows-1)*xRow+(steps-1)*xStep]
	_ = y[(steps-1)*yStep+cols-1]
	var bp *float64
	if bias != nil {
		_ = bias[cols-1]
		bp = &bias[0]
	}
	tile4(&out[0], &x[0], &y[0], bp, rows, cols, steps, outRow, xRow, xStep, yStep, scale, flags)
}

// laneTranspose returns bᵀ [c,r] of b [r,c] in scratch from t's graph when
// a tile with `rows` output rows, r columns and c terms per sum will read
// it — dA's and q·kᵀ's lane operand — and nil otherwise.
func laneTranspose(t *Tensor, b []float64, r, c, rows int) []float64 {
	if !lanesFit(rows, r, c) {
		return nil
	}
	bt := graphScratch(t, r*c)
	transposeInto(bt, b, r, c)
	return bt
}

// transposeInto writes bᵀ [c,r] of b [r,c] into dst.
func transposeInto(dst, b []float64, r, c int) {
	dst, b = dst[:r*c], b[:r*c]
	for i := 0; i < r; i++ {
		for j, v := range b[i*c : i*c+c] {
			dst[j*r+i] = v
		}
	}
}

// expShifted writes dst[j] = math.Exp(src[j] - shift[j%4]) for every j of
// src, bit for bit, four at a time through exp4 where it can: one shift in
// all four for a row, one per lane for four interleaved rows. dst may be
// src.
func expShifted(dst, src []float64, shift *[4]float64) {
	dst = dst[:len(src)]
	j := 0
	if lanes && laneExp {
		for len(src)-j >= 4 {
			j += exp4(dst[j:], src[j:], shift)
			if len(src)-j >= 4 {
				// A group exp4 declined: a lane is non-finite or its
				// result leaves the normal range.
				for end := j + 4; j < end; j++ {
					dst[j] = math.Exp(src[j] - shift[j%4])
				}
			}
		}
	}
	for ; j < len(src); j++ {
		dst[j] = math.Exp(src[j] - shift[j%4])
	}
}

// interleave4 writes the four rows src[r·stride:][:n], r < 4, into p as n
// groups of four: element j of row r at p[4j+r]. Each group is stored
// whole: a lane routine's load of a group written as four scalars could not
// be forwarded from the store buffer and would wait for them.
func interleave4(p, src []float64, n, stride int) {
	_ = src[3*stride+n-1]
	interleave4Rows(p[:4*n], &src[0], stride)
}

// deinterleave4 writes p's four rows back into dst at the row stride.
func deinterleave4(dst, p []float64, n, stride int) {
	_ = dst[3*stride+n-1]
	deinterleave4Rows(p[:4*n], &dst[0], stride)
}

// addDeinterleaved4 adds p's four rows into dst's, element by element.
func addDeinterleaved4(dst, p []float64, n, stride int) {
	_ = dst[3*stride+n-1]
	addDeinterleave4Rows(p[:4*n], &dst[0], stride)
}

// softmaxRowsInto writes softmaxRow of each row of a [m,n] into out, four
// rows at a time in the row lanes when they are on; buf (4n) is their
// scratch.
func softmaxRowsInto(out, a, buf []float64, m, n int) {
	i := laneRows(0, m, n)
	p := buf[:4*n]
	for r := 0; r < i; r += 4 {
		interleave4(p, a[r*n:], n, n)
		var shift [4]float64
		rowMax4(&shift, p)
		expShifted(p, p, &shift)
		sumDivide4(p)
		deinterleave4(out[r*n:], p, n, n)
	}
	for ; i < m; i++ {
		softmaxRow(out[i*n:i*n+n], a[i*n:i*n+n])
	}
}

// softmaxRowsBackInto runs softmaxRowBack over each row of the [m,n]
// operands, four rows at a time in the row lanes when they are on; buf (8n)
// is their scratch.
func softmaxRowsBackInto(ga, probs, g, buf []float64, m, n int) {
	i := laneRows(0, m, n)
	o, d := buf[:4*n], buf[4*n:8*n]
	for r := 0; r < i; r += 4 {
		interleave4(o, probs[r*n:], n, n)
		interleave4(d, g[r*n:], n, n)
		softmaxBack4(d, o, d)
		addDeinterleaved4(ga[r*n:], d, n, n)
	}
	for ; i < m; i++ {
		softmaxRowBack(ga[i*n:i*n+n], probs[i*n:i*n+n], g[i*n:i*n+n])
	}
}

// dot runs dot4 after indexing the last element each operand's lanes and
// steps reach, which puts Go's bounds checks in front of the assembly.
func dot(acc *[4]float64, x, y []float64, steps, xLane, xStep, yStep int) {
	_ = x[3*xLane+(steps-1)*xStep]
	_ = y[(steps-1)*yStep]
	dot4(acc, &x[0], &y[0], steps, xLane, xStep, yStep)
}

// expProbes spans exp4's whole normal-result range, from the smallest
// magnitudes to either end, in groups of four.
var expProbes = func() []float64 {
	p := []float64{0, math.Copysign(0, -1), 1e-300, -1e-300, 0x1p-30, -0x1p-30, 0.5, -0.5, 1, -1, math.Ln2, -math.Ln2}
	for i := 0; i < 256; i++ {
		p = append(p, -708+float64(i)*(708+709)/255)
	}
	return p
}()

// exp4Agrees reports whether exp4 takes every group of expProbes and writes
// exactly what exp does.
func exp4Agrees(exp func(float64) float64) bool {
	got := make([]float64, len(expProbes))
	if exp4(got, expProbes, &[4]float64{}) != len(expProbes) {
		return false
	}
	for i, x := range expProbes {
		if math.Float64bits(got[i]) != math.Float64bits(exp(x)) {
			return false
		}
	}
	return true
}

// tanhProbes spans all three of math.tanh's regimes and their bounds: the
// rational form below 0.625 (from the subnormals up, ±0 returned as they
// are), the exponential form up to 0.5·MAXLOG ≈ 44.01, and ±1 above it,
// in groups of four.
var tanhProbes = func() []float64 {
	big := 0.5 * 8.8029691931113054295988e+01
	p := []float64{0, math.Copysign(0, -1), 5e-324, -1e-300, 0x1p-30, -0.3,
		0.625, math.Nextafter(0.625, 0), -0.625, math.Nextafter(-0.625, -1),
		big, math.Nextafter(big, 100), -big, math.Nextafter(-big, -100),
		math.Inf(1), math.Inf(-1), 1e300, -1e300}
	for i := 0; i < 254; i++ {
		p = append(p, -50+float64(i)*100/253)
	}
	return p
}()

// tanh4Agrees reports whether tanh4 takes every group of tanhProbes and
// writes exactly what tanh does.
func tanh4Agrees(tanh func(float64) float64) bool {
	got := make([]float64, len(tanhProbes))
	if tanh4(got, tanhProbes) != len(tanhProbes) {
		return false
	}
	for i, x := range tanhProbes {
		if math.Float64bits(got[i]) != math.Float64bits(tanh(x)) {
			return false
		}
	}
	return true
}
