package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// The generic ops below are no part of any model: each is the composition a
// fused node or kernel is held to bit for bit (identity_test.go) and whose
// gradient the finite-difference checks pin (grad_test.go).

// transpose returns the transpose of a 2-D tensor.
func transpose(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("nn: transpose requires 2-D, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	out := newResult([]int{n, m}, a)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	out.setBack(transposeBack)
	return out
}

func transposeBack(out *Tensor) {
	a := out.parents[0]
	m, n := a.Shape[0], a.Shape[1]
	a.ensureGrad()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Grad[i*n+j] += out.Grad[j*m+i]
		}
	}
}

// softmaxRows applies softmax independently to each row of a 2-D tensor
// through refSoftmaxRow, so that the fused node is held to an independent
// definition.
func softmaxRows(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("nn: softmaxRows requires 2-D, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	out := newResult(a.Shape, a)
	for i := 0; i < m; i++ {
		refSoftmaxRow(out.Data[i*n:i*n+n], a.Data[i*n:i*n+n])
	}
	out.setBack(softmaxRowsBack)
	return out
}

func softmaxRowsBack(out *Tensor) {
	a := out.parents[0]
	m, n := a.Shape[0], a.Shape[1]
	a.ensureGrad()
	for i := 0; i < m; i++ {
		refSoftmaxRowBack(a.Grad[i*n:i*n+n], out.Data[i*n:i*n+n], out.Grad[i*n:i*n+n])
	}
}

// The row ops' references: the textbook one-row (or one-element) loops the
// production ops — four rows or four elements to a lane group, selects in
// place of branches — are held to bit for bit (rowops_test.go).

// refSoftmaxRow is softmax over math.Exp: subtract the row maximum,
// exponentiate and sum left to right, divide by the sum.
func refSoftmaxRow(out, row []float64) {
	maxv := row[0]
	for _, v := range row[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for j, v := range row {
		out[j] = math.Exp(v - maxv)
		sum += out[j]
	}
	for j := range row {
		out[j] /= sum
	}
}

// refSoftmaxRowBack adds the softmax gradient of a row with output y and
// upstream gradient g into ga: ga[j] += y[j]·(g[j] − Σ g·y), the dot
// product left to right.
func refSoftmaxRowBack(ga, y, g []float64) {
	var dot float64
	for j := range g {
		dot += g[j] * y[j]
	}
	for j := range g {
		ga[j] += y[j] * (g[j] - dot)
	}
}

// refLayerNormRow normalizes x to zero mean and unit variance, writes x̂
// and gain·x̂ + bias, and returns 1/σ.
func refLayerNormRow(out, xhat, x, gain, bias []float64, eps float64) float64 {
	var mu float64
	for _, v := range x {
		mu += v
	}
	mu /= float64(len(x))
	var va float64
	for _, v := range x {
		va += (v - mu) * (v - mu)
	}
	va /= float64(len(x))
	is := 1 / math.Sqrt(va+eps)
	for j, v := range x {
		xhat[j] = (v - mu) * is
		out[j] = gain[j]*xhat[j] + bias[j]
	}
	return is
}

// refLayerNormRowBack adds one row's gain and bias terms into their
// gradients and writes the row's input gradient into dx.
func refLayerNormRowBack(dx, gainGrad, biasGrad, g, xhat, gain []float64, invStd float64) {
	for j := range g {
		gainGrad[j] += g[j] * xhat[j]
		biasGrad[j] += g[j]
	}
	n := float64(len(g))
	var sumDh, sumDhH float64
	for j := range g {
		sumDh += g[j] * gain[j]
		sumDhH += g[j] * gain[j] * xhat[j]
	}
	for j := range g {
		dx[j] = invStd * (g[j]*gain[j] - sumDh/n - xhat[j]*sumDhH/n)
	}
}

// refReLU and refReLUBack are ReLU with the sign branch.
func refReLU(out, a []float64) {
	for i, v := range a {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

func refReLUBack(ga, a, g []float64) {
	for i := range g {
		if a[i] > 0 {
			ga[i] += g[i]
		}
	}
}

// refTanh and refTanhBack are tanh over math.Tanh and its derivative
// 1 − y².
func refTanh(out, a []float64) {
	for i, v := range a {
		out[i] = math.Tanh(v)
	}
}

func refTanhBack(ga, y, g []float64) {
	for i := range g {
		ga[i] += g[i] * (1 - y[i]*y[i])
	}
}

// refDropoutMask draws dropout's mask with the branch: 1/(1−p) where the
// draw is ≥ p, 0 elsewhere.
func refDropoutMask(mask []float64, p float64, rng *rand.Rand) {
	for i := range mask {
		if rng.Float64() >= p {
			mask[i] = 1 / (1 - p)
		} else {
			mask[i] = 0
		}
	}
}

// sumAll reduces a tensor to the scalar sum of its elements.
func sumAll(a *Tensor) *Tensor {
	out := newResult([]int{1}, a)
	var s float64
	for _, v := range a.Data {
		s += v
	}
	out.Data[0] = s
	out.savedF = 1
	out.setBack(sumAllBack)
	return out
}

// meanAll reduces a tensor to the scalar mean of its elements.
func meanAll(a *Tensor) *Tensor {
	out := newResult([]int{1}, a)
	var s float64
	for _, v := range a.Data {
		s += v
	}
	n := float64(a.Numel())
	out.Data[0] = s / n
	out.savedF = n
	out.setBack(sumAllBack)
	return out
}

// sumAllBack spreads the scalar's gradient, divided by the saved element
// count (1 for sumAll, and g/1 is g), over the operand.
func sumAllBack(out *Tensor) {
	a := out.parents[0]
	a.ensureGrad()
	g := out.Grad[0] / out.savedF
	for i := range a.Grad {
		a.Grad[i] += g
	}
}

// LayerNorm normalizes each row of a 2-D tensor to zero mean and unit
// variance, then applies a learned per-column gain and bias.
func layerNorm(a, gain, bias *Tensor, eps float64) *Tensor {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("nn: LayerNorm requires 2-D, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	if gain.Numel() != n || bias.Numel() != n {
		panic("nn: LayerNorm gain/bias size mismatch")
	}
	out := newResult(a.Shape, a, gain, bias)
	xhat, invStd := graphScratch(out, m*n), graphScratch(out, m)
	layerNormRows(out.Data, xhat, invStd, a.Data, gain.Data, bias.Data, graphScratch(out, 8*n), m, n, eps)
	out.saved = [2][]float64{xhat, invStd}
	out.setBack(layerNormBack)
	return out
}

func layerNormBack(out *Tensor) {
	layerNormBackInto(out, out.parents[0], nil, out.parents[1], out.parents[2])
}
