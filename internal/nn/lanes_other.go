//go:build !amd64

package nn

// The lane kernels are amd64 assembly; elsewhere the Go kernels run alone.

func cpuHasLanes() bool { return false }

const noLanes = "nn: no lane kernels on this architecture"

func tile4(out, x, y, bias *float64, rows, cols, steps, outRow, xRow, xStep, yStep int, scale float64, flags int) {
	panic(noLanes)
}

func exp4(dst, src []float64, shift *[4]float64) int { panic(noLanes) }

func rowMax4(max *[4]float64, p []float64) { panic(noLanes) }

func sumDivide4(p []float64) { panic(noLanes) }

func softmaxBack4(d, o, g []float64) { panic(noLanes) }

func layerNorm4(x, o []float64, gain, bias *float64, eps float64, invStd *[4]float64) {
	panic(noLanes)
}

func layerNormBack4(dx, g, h []float64, gain *float64, invStd *[4]float64) { panic(noLanes) }

func dot4(acc *[4]float64, x, y *float64, steps, xLane, xStep, yStep int) { panic(noLanes) }

func tanh4(dst, src []float64) int { panic(noLanes) }

func tanhBack4(ga, g, y []float64) int { panic(noLanes) }

func interleave4Rows(p []float64, rows *float64, stride int) { panic(noLanes) }

func deinterleave4Rows(p []float64, rows *float64, stride int) { panic(noLanes) }

func addDeinterleave4Rows(p []float64, rows *float64, stride int) { panic(noLanes) }
