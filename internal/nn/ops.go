package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Every op below builds its result with newResult and, when the result is
// differentiable, installs its backward step with setBack. The steps are
// plain functions of the result (see Tensor.back): out.parents are the
// operands in the order the op took them, and anything else the step needs
// was saved on the result by the forward.

func sameShape(a, b *Tensor) {
	if len(a.Shape) != len(b.Shape) {
		panic(fmt.Sprintf("nn: shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			panic(fmt.Sprintf("nn: shape mismatch %v vs %v", a.Shape, b.Shape))
		}
	}
}

// accumulate adds g into t's gradient elementwise if t is differentiable —
// the backward of every op that passes its result's gradient straight
// through to an operand.
func accumulate(t *Tensor, g []float64) {
	if !t.needGrad {
		return
	}
	t.ensureGrad()
	tg := t.Grad[:len(g)]
	for i, v := range g {
		tg[i] += v
	}
}

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	sameShape(a, b)
	out := newResult(a.Shape, a, b)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	out.setBack(addBack)
	return out
}

func addBack(out *Tensor) {
	accumulate(out.parents[0], out.Grad)
	accumulate(out.parents[1], out.Grad)
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	sameShape(a, b)
	out := newResult(a.Shape, a, b)
	for i := range out.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	out.setBack(subBack)
	return out
}

func subBack(out *Tensor) {
	accumulate(out.parents[0], out.Grad)
	if b := out.parents[1]; b.needGrad {
		b.ensureGrad()
		for i, g := range out.Grad {
			b.Grad[i] -= g
		}
	}
}

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	sameShape(a, b)
	out := newResult(a.Shape, a, b)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	out.setBack(mulBack)
	return out
}

func mulBack(out *Tensor) {
	a, b := out.parents[0], out.parents[1]
	if a.needGrad {
		a.ensureGrad()
		for i, g := range out.Grad {
			a.Grad[i] += g * b.Data[i]
		}
	}
	if b.needGrad {
		b.ensureGrad()
		for i, g := range out.Grad {
			b.Grad[i] += g * a.Data[i]
		}
	}
}

// Scale returns a * s for a constant scalar s.
func Scale(a *Tensor, s float64) *Tensor {
	out := newResult(a.Shape, a)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * s
	}
	out.savedF = s
	out.setBack(scaleBack)
	return out
}

func scaleBack(out *Tensor) {
	a, s := out.parents[0], out.savedF
	a.ensureGrad()
	for i, g := range out.Grad {
		a.Grad[i] += g * s
	}
}

// AddRowVec adds the row vector b (shape [n] or [1,n]) to every row of the
// 2-D tensor a (shape [m,n]).
func AddRowVec(a, b *Tensor) *Tensor {
	n := a.Shape[len(a.Shape)-1]
	if b.Numel() != n {
		panic(fmt.Sprintf("nn: AddRowVec %v + %v", a.Shape, b.Shape))
	}
	out := newResult(a.Shape, a, b)
	m := a.Numel() / n
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[i*n+j] = a.Data[i*n+j] + b.Data[j]
		}
	}
	out.setBack(addRowVecBack)
	return out
}

func addRowVecBack(out *Tensor) {
	a, b := out.parents[0], out.parents[1]
	accumulate(a, out.Grad)
	if b.needGrad {
		b.ensureGrad()
		n := b.Numel()
		m := out.Numel() / n
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				b.Grad[j] += out.Grad[i*n+j]
			}
		}
	}
}

// MatMul returns the matrix product of a [m,k] and b [k,n]. Forward, dA and
// dB run on the three kernels of kernels.go; products whose m*k*n exceeds
// matMulParallelFlops run the same kernels over row blocks spread across
// GOMAXPROCS workers, which is bit-identical to the serial computation.
func MatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("nn: MatMul %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := newResult([]int{m, n}, a, b)
	matMulForward(out.Data, a.Data, b.Data, nil, m, k, n)
	out.setBack(matMulBack)
	return out
}

func matMulBack(out *Tensor) {
	a, b := out.parents[0], out.parents[1]
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	if a.needGrad {
		a.ensureGrad()
		matMulBackA(a.Grad, out.Grad, b.Data, laneTranspose(out, b.Data, k, n, m), m, k, n)
	}
	if b.needGrad {
		b.ensureGrad()
		matMulBackB(b.Grad, a.Data, out.Grad, m, k, n)
	}
}

// Linear returns x·w + bias, x [m,k], w [k,n], bias [n] or [1,n], as one
// node: AddRowVec(MatMul(x, w), bias) without the intermediate product
// tensor, bit-identical to that composition in its value and in every
// gradient. The backward runs in the composition's order: bias gradient
// (rows ascending, each added into bias.Grad in turn), then dX, then dW.
func Linear(x, w, bias *Tensor) *Tensor {
	if len(x.Shape) != 2 || len(w.Shape) != 2 || x.Shape[1] != w.Shape[0] || bias.Numel() != w.Shape[1] {
		panic(fmt.Sprintf("nn: Linear %v x %v + %v", x.Shape, w.Shape, bias.Shape))
	}
	m, k, n := x.Shape[0], x.Shape[1], w.Shape[1]
	out := newResult([]int{m, n}, x, w, bias)
	matMulForward(out.Data, x.Data, w.Data, bias.Data, m, k, n)
	out.setBack(linearBack)
	return out
}

func linearBack(out *Tensor) {
	x, w, bias := out.parents[0], out.parents[1], out.parents[2]
	m, k, n := x.Shape[0], x.Shape[1], w.Shape[1]
	if bias.needGrad {
		bias.ensureGrad()
		addRowsInto(bias.Grad, out.Grad, n)
	}
	if x.needGrad {
		x.ensureGrad()
		matMulBackA(x.Grad, out.Grad, w.Data, laneTranspose(out, w.Data, k, n, m), m, k, n)
	}
	if w.needGrad {
		w.ensureGrad()
		matMulBackB(w.Grad, x.Data, out.Grad, m, k, n)
	}
}

// ScaledMatMulT returns (a·bᵀ)·s for a [m,d], b [n,d] and a constant s, as
// one node: Scale(MatMul(a, transpose(b)), s) — attention's q·kᵀ/√d —
// without materialising the transpose or the unscaled product,
// bit-identical to that composition (its generic ops live with the tests,
// oracles_test.go) in its value and in both gradients.
func ScaledMatMulT(a, b *Tensor, s float64) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("nn: ScaledMatMulT %v x %v^T", a.Shape, b.Shape))
	}
	m, d, n := a.Shape[0], a.Shape[1], b.Shape[0]
	out := newResult([]int{m, n}, a, b)
	scaledMatMulT(out.Data, a.Data, b.Data, laneTranspose(out, b.Data, n, d, m), s, m, d, n)
	out.savedF = s
	out.setBack(scaledMatMulTBack)
	return out
}

func scaledMatMulTBack(out *Tensor) {
	a, b, s := out.parents[0], out.parents[1], out.savedF
	m, d, n := a.Shape[0], a.Shape[1], b.Shape[0]
	if a.needGrad {
		a.ensureGrad()
		scaledMatMulTGradA(a.Grad, out.Grad, b.Data, s, m, d, n)
	}
	if b.needGrad {
		b.ensureGrad()
		scaledMatMulTGradB(b.Grad, a.Data, out.Grad, s, m, d, n)
	}
}

// Tanh applies tanh elementwise.
func Tanh(a *Tensor) *Tensor {
	out := newResult(a.Shape, a)
	for i, v := range a.Data {
		out.Data[i] = math.Tanh(v)
	}
	out.setBack(tanhBack)
	return out
}

func tanhBack(out *Tensor) {
	a := out.parents[0]
	a.ensureGrad()
	for i, g := range out.Grad {
		y := out.Data[i]
		a.Grad[i] += g * (1 - y*y)
	}
}

// ReLU applies max(0, x) elementwise.
func ReLU(a *Tensor) *Tensor {
	out := newResult(a.Shape, a)
	for i, v := range a.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	out.setBack(reluBack)
	return out
}

func reluBack(out *Tensor) {
	a := out.parents[0]
	a.ensureGrad()
	for i, g := range out.Grad {
		if a.Data[i] > 0 {
			a.Grad[i] += g
		}
	}
}

// Sigmoid applies the logistic function elementwise.
func Sigmoid(a *Tensor) *Tensor {
	out := newResult(a.Shape, a)
	for i, v := range a.Data {
		out.Data[i] = 1 / (1 + math.Exp(-v))
	}
	out.setBack(sigmoidBack)
	return out
}

func sigmoidBack(out *Tensor) {
	a := out.parents[0]
	a.ensureGrad()
	for i, g := range out.Grad {
		y := out.Data[i]
		a.Grad[i] += g * y * (1 - y)
	}
}

// softmaxRow writes softmax(row) into orow (same length): subtract the
// maximum, exponentiate and sum left to right, divide by the sum.
func softmaxRow(orow, row []float64) {
	maxv := row[0]
	for _, v := range row[1:] {
		if v > maxv {
			maxv = v
		}
	}
	orow = orow[:len(row)]
	expShifted(orow, row, maxv)
	var sum float64
	for _, e := range orow {
		sum += e
	}
	for j := range orow {
		orow[j] /= sum
	}
}

// softmaxRowBack adds into arow the gradient of a softmax row with output
// orow and upstream gradient grow.
func softmaxRowBack(arow, orow, grow []float64) {
	orow, arow = orow[:len(grow)], arow[:len(grow)]
	var dot float64
	for j, g := range grow {
		dot += g * orow[j]
	}
	for j, g := range grow {
		arow[j] += orow[j] * (g - dot)
	}
}

// SoftmaxMatMul returns softmax(a)·v, the softmax taken over each row of
// a [m,n] and v [n,d], as one node: MatMul(softmaxRows(a), v) — attention's
// weighted sum of values — keeping the probabilities as graph scratch and
// never giving them a gradient buffer. It is bit-identical to that
// composition in its value and in both gradients; the backward adds v's
// gradient before a's, as the composition does. (The one graph shape where
// the two differ is a v computed from a: there the composition adds v's
// downstream contribution into a.Grad first.)
func SoftmaxMatMul(a, v *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(v.Shape) != 2 || a.Shape[1] != v.Shape[0] {
		panic(fmt.Sprintf("nn: SoftmaxMatMul softmax(%v) x %v", a.Shape, v.Shape))
	}
	m, n, d := a.Shape[0], a.Shape[1], v.Shape[1]
	out := newResult([]int{m, d}, a, v)
	probs := graphScratch(out, m*n)
	for i := 0; i < m; i++ {
		softmaxRow(probs[i*n:i*n+n], a.Data[i*n:i*n+n])
	}
	matMulForward(out.Data, probs, v.Data, nil, m, n, d)
	out.saved[0] = probs
	out.setBack(softmaxMatMulBack)
	return out
}

func softmaxMatMulBack(out *Tensor) {
	a, v, probs := out.parents[0], out.parents[1], out.saved[0]
	m, n, d := a.Shape[0], a.Shape[1], v.Shape[1]
	if v.needGrad {
		v.ensureGrad()
		matMulBackB(v.Grad, probs, out.Grad, m, n, d)
	}
	if a.needGrad {
		a.ensureGrad()
		// The probabilities' gradient, MatMul's dA summed into zeros,
		// then the softmax backward row by row.
		dp := graphScratch(out, m*n)
		clear(dp)
		matMulBackA(dp, out.Grad, v.Data, laneTranspose(out, v.Data, n, d, m), m, n, d)
		for i := 0; i < m; i++ {
			softmaxRowBack(a.Grad[i*n:i*n+n], probs[i*n:i*n+n], dp[i*n:i*n+n])
		}
	}
}

// ConcatCols concatenates 2-D tensors with equal row counts along columns.
func ConcatCols(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("nn: ConcatCols of nothing")
	}
	m := ts[0].Shape[0]
	total := 0
	for _, t := range ts {
		if len(t.Shape) != 2 || t.Shape[0] != m {
			panic(fmt.Sprintf("nn: ConcatCols row mismatch: %v", t.Shape))
		}
		total += t.Shape[1]
	}
	out := newResult([]int{m, total}, ts...)
	off := 0
	for _, t := range ts {
		n := t.Shape[1]
		for i := 0; i < m; i++ {
			copy(out.Data[i*total+off:i*total+off+n], t.Data[i*n:i*n+n])
		}
		off += n
	}
	out.setBack(concatColsBack)
	return out
}

func concatColsBack(out *Tensor) {
	m, total := out.Shape[0], out.Shape[1]
	off := 0
	for _, t := range out.parents {
		n := t.Shape[1]
		if t.needGrad {
			t.ensureGrad()
			for i := 0; i < m; i++ {
				trow := t.Grad[i*n : i*n+n]
				for j, g := range out.Grad[i*total+off : i*total+off+n] {
					trow[j] += g
				}
			}
		}
		off += n
	}
}

// Rows selects the given rows of a 2-D tensor (gather along dim 0). Used for
// embedding lookups: table [V,d] gathered with k indices yields [k,d].
func Rows(a *Tensor, idx []int) *Tensor {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("nn: Rows requires 2-D, got %v", a.Shape))
	}
	n := a.Shape[1]
	out := newResult([]int{len(idx), n}, a)
	for i, r := range idx {
		copy(out.Data[i*n:i*n+n], a.Data[r*n:r*n+n])
	}
	out.setBack(func(out *Tensor) {
		a.ensureGrad()
		for i, r := range idx {
			for j := 0; j < n; j++ {
				a.Grad[r*n+j] += out.Grad[i*n+j]
			}
		}
	})
	return out
}

// Dropout randomly zeroes elements with probability p at train time, scaling
// survivors by 1/(1-p) (inverted dropout). When train is false or p <= 0 it
// is the identity.
func Dropout(a *Tensor, p float64, train bool, rng *rand.Rand) *Tensor {
	if !train || p <= 0 {
		return a
	}
	if p >= 1 {
		panic("nn: dropout probability must be < 1")
	}
	out := newResult(a.Shape, a)
	mask := graphScratch(out, a.Numel())
	scale := 1 / (1 - p)
	for i := range mask {
		if rng.Float64() >= p {
			mask[i] = scale
		} else {
			mask[i] = 0
		}
	}
	for i, v := range a.Data {
		out.Data[i] = v * mask[i]
	}
	out.saved[0] = mask
	out.setBack(dropoutBack)
	return out
}

func dropoutBack(out *Tensor) {
	a, mask := out.parents[0], out.saved[0]
	a.ensureGrad()
	for i, g := range out.Grad {
		a.Grad[i] += g * mask[i]
	}
}

// layerNormRows normalizes each row of x [m,n] to zero mean and unit
// variance and writes gain·x̂ + bias into out, saving x̂ and 1/σ for the
// backward.
func layerNormRows(out, xhat, invStd, x, gain, bias []float64, m, n int, eps float64) {
	gain, bias = gain[:n], bias[:n]
	for i := 0; i < m; i++ {
		row := x[i*n : i*n+n]
		var mu float64
		for _, v := range row {
			mu += v
		}
		mu /= float64(n)
		var va float64
		for _, v := range row {
			d := v - mu
			va += d * d
		}
		va /= float64(n)
		is := 1 / math.Sqrt(va+eps)
		invStd[i] = is
		hrow, orow := xhat[i*n:i*n+n], out[i*n:i*n+n]
		for j, v := range row {
			h := (v - mu) * is
			hrow[j] = h
			orow[j] = gain[j]*h + bias[j]
		}
	}
}

// layerNormRowBack is the backward of one layer-norm row: it adds the row's
// terms into the gain and bias gradients (when those are non-nil) and, when
// dx is non-nil, writes the gradient with respect to the row's input there.
func layerNormRowBack(dx, gainGrad, biasGrad, grow, hrow, gain []float64, invStd float64) {
	n := len(grow)
	hrow, gain = hrow[:n], gain[:n]
	if gainGrad != nil {
		gainGrad = gainGrad[:n]
		for j, g := range grow {
			gainGrad[j] += g * hrow[j]
		}
	}
	if biasGrad != nil {
		biasGrad = biasGrad[:n]
		for j, g := range grow {
			biasGrad[j] += g
		}
	}
	if dx != nil {
		// dL/dxhat_j = g_j * gain_j; standard layer-norm backward.
		dx = dx[:n]
		var sumDh, sumDhH float64
		for j, g := range grow {
			dh := g * gain[j]
			dx[j] = dh
			sumDh += dh
			sumDhH += dh * hrow[j]
		}
		nf := float64(n)
		for j, dh := range dx {
			dx[j] = invStd * (dh - sumDh/nf - hrow[j]*sumDhH/nf)
		}
	}
}

// layerNormBackInto runs the layer-norm backward of out row by row, adding
// each row's input gradient into a and, when b is non-nil (the fused
// residual form), into b after it.
func layerNormBackInto(out, a, b, gain, bias *Tensor) {
	m, n := out.Shape[0], out.Shape[1]
	xhat, invStd := out.saved[0], out.saved[1]
	var gainGrad, biasGrad, dx []float64
	if gain.needGrad {
		gain.ensureGrad()
		gainGrad = gain.Grad
	}
	if bias.needGrad {
		bias.ensureGrad()
		biasGrad = bias.Grad
	}
	needA, needB := a.needGrad, b != nil && b.needGrad
	if needA {
		a.ensureGrad()
	}
	if needB {
		b.ensureGrad()
	}
	if needA || needB {
		dx = graphScratch(out, n)
	}
	for i := 0; i < m; i++ {
		layerNormRowBack(dx, gainGrad, biasGrad, out.Grad[i*n:i*n+n], xhat[i*n:i*n+n], gain.Data, invStd[i])
		if needA {
			arow := a.Grad[i*n : i*n+n]
			for j, d := range dx {
				arow[j] += d
			}
		}
		if needB {
			brow := b.Grad[i*n : i*n+n]
			for j, d := range dx {
				brow[j] += d
			}
		}
	}
}

// AddLayerNorm returns layerNorm(a + b, gain, bias, eps) as one node — a
// transformer's residual connection and the normalization after it —
// without the sum's tensor or its gradient buffer, bit-identical to
// layerNorm(Add(a, b), gain, bias, eps) in its value and in all four
// gradients.
func AddLayerNorm(a, b, gain, bias *Tensor, eps float64) *Tensor {
	sameShape(a, b)
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("nn: AddLayerNorm requires 2-D, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	if gain.Numel() != n || bias.Numel() != n {
		panic("nn: AddLayerNorm gain/bias size mismatch")
	}
	out := newResult(a.Shape, a, b, gain, bias)
	xhat, invStd := graphScratch(out, m*n), graphScratch(out, m)
	// x̂'s buffer holds the sum until layerNormRows, which reads each row
	// before it overwrites it, replaces it.
	bd := b.Data[:len(xhat)]
	for i, v := range a.Data[:len(xhat)] {
		xhat[i] = v + bd[i]
	}
	layerNormRows(out.Data, xhat, invStd, xhat, gain.Data, bias.Data, m, n, eps)
	out.saved = [2][]float64{xhat, invStd}
	out.setBack(addLayerNormBack)
	return out
}

func addLayerNormBack(out *Tensor) {
	layerNormBackInto(out, out.parents[0], out.parents[1], out.parents[2], out.parents[3])
}

// ConcatRows concatenates 2-D tensors with equal column counts along rows.
func ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("nn: ConcatRows of nothing")
	}
	n := ts[0].Shape[1]
	total := 0
	for _, t := range ts {
		if len(t.Shape) != 2 || t.Shape[1] != n {
			panic(fmt.Sprintf("nn: ConcatRows column mismatch: %v", t.Shape))
		}
		total += t.Shape[0]
	}
	out := newResult([]int{total, n}, ts...)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:off+t.Numel()], t.Data)
		off += t.Numel()
	}
	out.setBack(concatFlatBack)
	return out
}

// concatFlatBack is the backward of a concatenation whose operands lie one
// after another in the result (ConcatRows, ConcatChannels): each operand
// takes its stretch of the result's gradient.
func concatFlatBack(out *Tensor) {
	off := 0
	for _, t := range out.parents {
		accumulate(t, out.Grad[off:off+t.Numel()])
		off += t.Numel()
	}
}

// Reshape returns a view-like tensor with the same data in a new shape. The
// element count must match. Gradients flow through unchanged.
func Reshape(a *Tensor, shape ...int) *Tensor {
	if numel(shape) != a.Numel() {
		panic(fmt.Sprintf("nn: Reshape %v -> %v", a.Shape, shape))
	}
	out := newResult(shape, a)
	copy(out.Data, a.Data)
	out.setBack(reshapeBack)
	return out
}

func reshapeBack(out *Tensor) { accumulate(out.parents[0], out.Grad) }
