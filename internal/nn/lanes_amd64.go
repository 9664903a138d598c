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

// exp4 writes dst[j] = math.Exp(src[j]-shift) four elements at a time, from
// the start of src, and stops before the first group of four that has a
// lane off math.Exp's normal-result path, or fewer than four elements left;
// it returns how many elements it wrote. len(dst) >= len(src).
//
//go:noescape
func exp4(dst, src []float64, shift float64) int
