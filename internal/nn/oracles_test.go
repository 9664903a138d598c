package nn

import (
	"fmt"
	"math"
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

// softmaxRows applies softmax independently to each row of a 2-D tensor:
// the textbook loop over math.Exp, written out here rather than calling the
// production softmaxRow, so that the fused node is held to an independent
// definition — subtract the row maximum, exponentiate and sum left to right,
// divide by the sum.
func softmaxRows(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("nn: softmaxRows requires 2-D, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	out := newResult(a.Shape, a)
	for i := 0; i < m; i++ {
		maxv := a.Data[i*n]
		for j := 1; j < n; j++ {
			if a.Data[i*n+j] > maxv {
				maxv = a.Data[i*n+j]
			}
		}
		var sum float64
		for j := 0; j < n; j++ {
			out.Data[i*n+j] = math.Exp(a.Data[i*n+j] - maxv)
			sum += out.Data[i*n+j]
		}
		for j := 0; j < n; j++ {
			out.Data[i*n+j] /= sum
		}
	}
	out.setBack(softmaxRowsBack)
	return out
}

// softmaxRowsBack is the softmax gradient of each row, likewise written
// out: a.Grad[j] += y[j]·(g[j] − Σ g·y), the dot product left to right.
func softmaxRowsBack(out *Tensor) {
	a := out.parents[0]
	m, n := a.Shape[0], a.Shape[1]
	a.ensureGrad()
	for i := 0; i < m; i++ {
		var dot float64
		for j := 0; j < n; j++ {
			dot += out.Grad[i*n+j] * out.Data[i*n+j]
		}
		for j := 0; j < n; j++ {
			a.Grad[i*n+j] += out.Data[i*n+j] * (out.Grad[i*n+j] - dot)
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
	layerNormRows(out.Data, xhat, invStd, a.Data, gain.Data, bias.Data, m, n, eps)
	out.saved = [2][]float64{xhat, invStd}
	out.setBack(layerNormBack)
	return out
}

func layerNormBack(out *Tensor) {
	layerNormBackInto(out, out.parents[0], nil, out.parents[1], out.parents[2])
}
