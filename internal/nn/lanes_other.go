//go:build !amd64

package nn

// The lane kernels are amd64 assembly; elsewhere the Go kernels run alone.

func cpuHasLanes() bool { return false }

func tile4(out, x, y, bias *float64, rows, cols, steps, outRow, xRow, xStep, yStep int, scale float64, flags int) {
	panic("nn: no lane kernels on this architecture")
}

func exp4(dst, src []float64, shift float64) int {
	panic("nn: no lane kernels on this architecture")
}
