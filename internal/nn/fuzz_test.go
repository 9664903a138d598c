package nn

import (
	"math"
	"testing"
)

// fuzzValues is what a fuzz input's bytes select from: the zeros the skip
// tests for, ordinary and inexact values, magnitudes whose products and sums
// overflow, lose bits or go subnormal, and the infinities (0·Inf is what the
// zero skip exists to avoid).
var fuzzValues = [...]float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -3, 1.0 / 3, -0.1,
	1e-3, 7.25, 1e17, -1e17, 1e200, 1e-200, math.SmallestNonzeroFloat64, -2.5e-160,
	math.Inf(1), math.Inf(-1), math.MaxFloat64, 1 + 1.0/(1<<52),
}

// sameBitsOrNaN is sameBits with every NaN equal to every other: which of
// two NaN operands' payloads an addition keeps is the instruction
// selector's business, not the kernels'.
func sameBitsOrNaN(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i
		}
	}
	return -1
}

// FuzzMatMulKernels turns bytes into (m, k, n, values) and holds the
// product kernels — over a row split drawn from the input too — to the naive
// triple loops in the reference order, bit for bit, on the Go path and on
// the lane path where the processor has it; a kernel that indexed out of
// range would panic here. The seeds cover every specialised width (1,
// 4, 8; k = 4) and the widths either side.
func FuzzMatMulKernels(f *testing.F) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 31, 32, 33} {
		for _, k := range []int{1, 3, 4, 5, 8, 24} {
			f.Add([]byte{5, byte(k - 1), byte(n - 1), 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0, 0, 3, 1, 16, 2, 0, 17, 5})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		m, k, n := 1+int(data[0])%40, 1+int(data[1])%40, 1+int(data[2])%40
		split, ksplit := int(data[3])%(m+1), int(data[3])%(k+1)
		vals := data[4:]
		at := 0
		draw := func(count int) []float64 {
			d := make([]float64, count)
			for i := range d {
				d[i] = fuzzValues[int(vals[at%len(vals)])%len(fuzzValues)]
				at++
			}
			return d
		}
		o := kernelOperands{
			m: m, k: k, n: n, split: split, ksplit: ksplit,
			a: draw(m * k), b: draw(k * n), g: draw(m * n), bias: draw(n),
			stale: draw(m * n), ga0: draw(m * k), gb0: draw(k * n),
		}
		for _, on := range kernelPaths() {
			restore := setLanes(on)
			checkKernels(t, o, sameBitsOrNaN)
			restore()
		}
	})
}
