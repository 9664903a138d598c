package nn

import "math"

// The lane path. On amd64 processors with AVX2 and FMA (lanes_amd64.s) the
// kernels of kernels.go hand their blocks of four rows by four columns to
// one register tile, and softmax's exponentials go four at a time through
// exp4. Both keep the order contract of kernels.go lane by lane:
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
// Tails of fewer than four rows or columns, and empty sums, stay in the Go
// kernels, which remain the whole path elsewhere and the reference the
// tests hold the lanes to.

// lanes is whether the kernels use the tile and exp4: set once, from the
// processor; the tests flip it to run both paths.
var lanes = cpuHasLanes()

// laneExp is whether exp4 agreed with math.Exp bit for bit on expProbes at
// start-up. exp4 replays one branch of the standard library's assembly; a
// toolchain that changed that branch fails the check and keeps math.Exp.
var laneExp = lanes && exp4Agrees(math.Exp)

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

// expShifted writes dst[j] = math.Exp(src[j] - shift) for every j of src,
// bit for bit, four at a time through exp4 where it can.
func expShifted(dst, src []float64, shift float64) {
	dst = dst[:len(src)]
	j := 0
	if lanes && laneExp {
		for len(src)-j >= 4 {
			j += exp4(dst[j:], src[j:], shift)
			if len(src)-j >= 4 {
				// A group exp4 declined: a lane is non-finite or its
				// result leaves the normal range.
				for end := j + 4; j < end; j++ {
					dst[j] = math.Exp(src[j] - shift)
				}
			}
		}
	}
	for ; j < len(src); j++ {
		dst[j] = math.Exp(src[j] - shift)
	}
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
	if exp4(got, expProbes, 0) != len(expProbes) {
		return false
	}
	for i, x := range expProbes {
		if math.Float64bits(got[i]) != math.Float64bits(exp(x)) {
			return false
		}
	}
	return true
}
