package nn

import (
	"math"
	"math/rand"
	"testing"
)

// checkGrads verifies analytic gradients of loss() with respect to every
// params element against central finite differences. loss must rebuild the
// graph on every call and be deterministic.
func checkGrads(t *testing.T, loss func() *Tensor, params []*Tensor, tol float64) {
	t.Helper()
	ZeroGrads(params)
	l := loss()
	Backward(l)
	const eps = 1e-6
	for pi, p := range params {
		for i := range p.Data {
			old := p.Data[i]
			p.Data[i] = old + eps
			l1 := loss().Value()
			p.Data[i] = old - eps
			l2 := loss().Value()
			p.Data[i] = old
			num := (l1 - l2) / (2 * eps)
			got := p.Grad[i]
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(got)))
			if math.Abs(num-got)/scale > tol {
				t.Errorf("param %d elem %d: analytic %v vs numeric %v", pi, i, got, num)
			}
		}
	}
}

func randParam(rng *rand.Rand, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.NormFloat64() * 0.5
	}
	return NewParam(data, shape...)
}

func TestGradAddSubMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 3, 4)
	checkGrads(t, func() *Tensor { return sumAll(Mul(Add(a, b), Sub(a, b))) }, []*Tensor{a, b}, 1e-5)
}

func TestGradScaleAndMean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randParam(rng, 2, 5)
	checkGrads(t, func() *Tensor { return meanAll(Scale(a, 3.5)) }, []*Tensor{a}, 1e-6)
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randParam(rng, 4, 3)
	b := randParam(rng, 3, 5)
	checkGrads(t, func() *Tensor { return sumAll(Tanh(MatMul(a, b))) }, []*Tensor{a, b}, 1e-5)
}

func TestGradTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 3, 4)
	checkGrads(t, func() *Tensor { return sumAll(MatMul(transpose(a), b)) }, []*Tensor{a, b}, 1e-5)
}

func TestGradAddRowVec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randParam(rng, 4, 3)
	b := randParam(rng, 3)
	checkGrads(t, func() *Tensor { return sumAll(Tanh(AddRowVec(a, b))) }, []*Tensor{a, b}, 1e-5)
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randParam(rng, 2, 6)
	checkGrads(t, func() *Tensor { return sumAll(Tanh(a)) }, []*Tensor{a}, 1e-5)
	checkGrads(t, func() *Tensor { return sumAll(Sigmoid(a)) }, []*Tensor{a}, 1e-5)
	// ReLU: keep inputs away from the kink.
	for i := range a.Data {
		if math.Abs(a.Data[i]) < 0.05 {
			a.Data[i] = 0.1
		}
	}
	checkGrads(t, func() *Tensor { return sumAll(Mul(ReLU(a), a)) }, []*Tensor{a}, 1e-5)
}

func TestGradSoftmaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randParam(rng, 3, 4)
	w := randParam(rng, 3, 4)
	checkGrads(t, func() *Tensor { return sumAll(Mul(softmaxRows(a), w)) }, []*Tensor{a, w}, 1e-5)
}

func TestGradConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randParam(rng, 3, 2)
	b := randParam(rng, 3, 4)
	checkGrads(t, func() *Tensor { return sumAll(Tanh(ConcatCols(a, b))) }, []*Tensor{a, b}, 1e-5)
	c := randParam(rng, 2, 3)
	d := randParam(rng, 4, 3)
	checkGrads(t, func() *Tensor { return sumAll(Tanh(ConcatRows(c, d))) }, []*Tensor{c, d}, 1e-5)
}

func TestGradRowsGather(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	table := randParam(rng, 5, 3)
	// Repeated index exercises gradient accumulation in the scatter.
	idx := []int{1, 3, 1}
	checkGrads(t, func() *Tensor { return sumAll(Tanh(Rows(table, idx))) }, []*Tensor{table}, 1e-5)
}

func TestGradReshape(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randParam(rng, 2, 6)
	checkGrads(t, func() *Tensor { return sumAll(Tanh(Reshape(a, 3, 4))) }, []*Tensor{a}, 1e-5)
}

func TestGradLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randParam(rng, 3, 6)
	gain := randParam(rng, 6)
	bias := randParam(rng, 6)
	w := randParam(rng, 3, 6)
	checkGrads(t, func() *Tensor {
		return sumAll(Mul(layerNorm(a, gain, bias, 1e-5), w))
	}, []*Tensor{a, gain, bias, w}, 1e-4)
}

func TestGradCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	logits := randParam(rng, 5)
	checkGrads(t, func() *Tensor { return CrossEntropy(logits, 2) }, []*Tensor{logits}, 1e-5)
}

func TestGradBCEWithLogits(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := randParam(rng, 3, 1)
	x := NewTensor([]float64{0.5, -1.2, 2.0}, 1, 3)
	for _, y := range []float64{0, 1} {
		checkGrads(t, func() *Tensor { return BCEWithLogits(MatMul(x, w), y) }, []*Tensor{w}, 1e-5)
	}
	checkGrads(t, func() *Tensor { return WeightedBCEWithLogits(MatMul(x, w), 1, 0.8) }, []*Tensor{w}, 1e-5)
}

func TestGradDense(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	d := NewDense(rng, 4, 3)
	x := NewTensor([]float64{1, 0.5, -0.3, 0.2, -1, 2, 0.1, 0.7}, 2, 4)
	checkGrads(t, func() *Tensor { return sumAll(Tanh(d.Forward(x))) }, d.Params(), 1e-5)
}

func TestGradMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m := NewMLP(rng, 3, 8, 1)
	x := NewTensor([]float64{0.3, -0.6, 0.9}, 1, 3)
	checkGrads(t, func() *Tensor { return BCEWithLogits(m.Forward(x), 1) }, m.Params(), 1e-4)
}

func TestGradMultiHeadAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	mha := NewMultiHeadSelfAttention(rng, 8, 2)
	x := randParam(rng, 5, 8)
	params := append(mha.Params(), x)
	checkGrads(t, func() *Tensor { return sumAll(Tanh(mha.Forward(x))) }, params, 1e-4)
}

func TestGradTransformerEncoderLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	l := NewTransformerEncoderLayer(rng, 8, 2, 16, 0) // no dropout for determinism
	x := randParam(rng, 4, 8)
	params := append(l.Params(), x)
	checkGrads(t, func() *Tensor { return sumAll(l.Forward(x, false, rng)) }, params, 2e-4)
}

func TestGradAdditiveAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	att := NewAdditiveAttention(rng, 8, 4, 16)
	z := randParam(rng, 6, 8)
	c := randParam(rng, 1, 4)
	params := append(att.Params(), z, c)
	checkGrads(t, func() *Tensor { return CrossEntropy(att.Scores(z, c), 3) }, params, 1e-4)
	// nil context (DLInfMA-nA ablation) must also be differentiable.
	checkGrads(t, func() *Tensor { return CrossEntropy(att.Scores(z, nil), 1) }, append(att.W.Params(), att.V, z), 1e-4)
}

func TestGradLSTM(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	l := NewLSTM(rng, 3, 4)
	x := randParam(rng, 5, 3)
	params := append(l.Params(), x)
	checkGrads(t, func() *Tensor { return sumAll(Tanh(l.Forward(x))) }, params, 1e-4)
}

func TestGradConv2D(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l := NewConvLayer(rng, 2, 3, 3)
	x := randParam(rng, 2, 5, 5)
	params := append(l.Params(), x)
	checkGrads(t, func() *Tensor { return sumAll(Tanh(l.Forward(x))) }, params, 1e-4)
}

func TestGradMaxPoolAndUpsample(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := randParam(rng, 1, 5, 5) // odd size exercises ceil pooling
	checkGrads(t, func() *Tensor { return sumAll(Tanh(MaxPool2D(x))) }, []*Tensor{x}, 1e-5)
	small := randParam(rng, 2, 3, 3)
	checkGrads(t, func() *Tensor { return sumAll(Tanh(UpsampleNearest(small, 7, 7))) }, []*Tensor{small}, 1e-5)
}

func TestGradConcatChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randParam(rng, 1, 3, 3)
	b := randParam(rng, 2, 3, 3)
	checkGrads(t, func() *Tensor { return sumAll(Tanh(ConcatChannels(a, b))) }, []*Tensor{a, b}, 1e-5)
}

func TestGradDropoutMaskIsConsistent(t *testing.T) {
	// With a fixed mask (replayed rng), dropout's backward must use the same
	// mask as forward. We verify by applying dropout once and checking the
	// gradient matches the mask.
	rng := rand.New(rand.NewSource(24))
	a := randParam(rng, 1, 10)
	out := Dropout(a, 0.5, true, rng)
	loss := sumAll(out)
	Backward(loss)
	for i := range a.Data {
		var wantGrad float64
		if out.Data[i] != 0 {
			wantGrad = 2 // 1/(1-0.5)
		}
		if a.Data[i] == 0 {
			continue // can't distinguish dropped from zero input
		}
		if math.Abs(a.Grad[i]-wantGrad) > 1e-12 {
			t.Errorf("elem %d: grad %v, want %v", i, a.Grad[i], wantGrad)
		}
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a := randParam(rng, 2, 3)
	out := Dropout(a, 0.5, false, rng)
	if out != a {
		t.Error("eval-mode dropout should return its input unchanged")
	}
}

func TestGradientAccumulationAcrossSamples(t *testing.T) {
	// Two backward passes without ZeroGrad accumulate, mirroring mini-batch
	// accumulation.
	rng := rand.New(rand.NewSource(26))
	w := randParam(rng, 2, 1)
	x := NewTensor([]float64{1, 2}, 1, 2)
	Backward(MatMul(x, w))
	g1 := append([]float64(nil), w.Grad...)
	Backward(MatMul(x, w))
	for i := range w.Grad {
		if math.Abs(w.Grad[i]-2*g1[i]) > 1e-12 {
			t.Errorf("grad did not accumulate: %v vs %v", w.Grad[i], 2*g1[i])
		}
	}
	w.ZeroGrad()
	for _, g := range w.Grad {
		if g != 0 {
			t.Error("ZeroGrad left nonzero gradient")
		}
	}
}

func TestGradLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	// One shape on the eight-wide kernel path, one on four-plus-one.
	for _, s := range [][3]int{{5, 3, 8}, {4, 6, 5}} {
		x := randParam(rng, s[0], s[1])
		w := randParam(rng, s[1], s[2])
		b := randParam(rng, s[2])
		checkGrads(t, func() *Tensor { return sumAll(Tanh(Linear(x, w, b))) }, []*Tensor{x, w, b}, 1e-5)
	}
}

func TestGradScaledMatMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// d = 4 takes the unrolled rows, d = 6 the blocked-plus-remainder ones.
	for _, d := range []int{4, 6} {
		a := randParam(rng, 5, d)
		b := randParam(rng, 7, d)
		checkGrads(t, func() *Tensor { return sumAll(Tanh(ScaledMatMulT(a, b, 0.5))) }, []*Tensor{a, b}, 1e-5)
	}
}

func TestGradSoftmaxMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := randParam(rng, 5, 6)
	v := randParam(rng, 6, 4)
	checkGrads(t, func() *Tensor { return sumAll(Tanh(SoftmaxMatMul(a, v))) }, []*Tensor{a, v}, 1e-5)
}

func TestGradAddLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randParam(rng, 3, 5)
	b := randParam(rng, 3, 5)
	gain := randParam(rng, 5)
	bias := randParam(rng, 5)
	w := randParam(rng, 3, 5)
	checkGrads(t, func() *Tensor {
		return sumAll(Mul(AddLayerNorm(a, b, gain, bias, 1e-5), w))
	}, []*Tensor{a, b, gain, bias}, 1e-4)
}
