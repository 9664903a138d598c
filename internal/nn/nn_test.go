package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestTensorConstruction(t *testing.T) {
	x := NewTensor([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if x.Rows() != 2 || x.Cols() != 3 || x.Numel() != 6 {
		t.Errorf("shape accessors wrong: %v", x.Shape)
	}
	if x.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v, want 6", x.At(1, 2))
	}
	z := Zeros(3, 3)
	for _, v := range z.Data {
		if v != 0 {
			t.Error("Zeros not zero")
		}
	}
}

func TestTensorPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched data/shape")
		}
	}()
	NewTensor([]float64{1, 2, 3}, 2, 2)
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-scalar Backward")
		}
	}()
	p := NewParam([]float64{1, 2}, 2)
	Backward(Add(p, p))
}

func TestBackwardOnConstantIsNoop(t *testing.T) {
	c := NewTensor([]float64{5}, 1)
	Backward(c) // must not panic
	if c.Grad != nil {
		t.Error("constant gained a gradient")
	}
}

func TestCrossEntropyMatchesManual(t *testing.T) {
	logits := NewParam([]float64{1, 2, 3}, 3)
	l := CrossEntropy(logits, 1)
	// softmax(1,2,3) = e^{x-3}/Z with Z = e^-2+e^-1+1
	z := math.Exp(-2) + math.Exp(-1) + 1
	want := -math.Log(math.Exp(-1) / z)
	if math.Abs(l.Value()-want) > 1e-12 {
		t.Errorf("CE = %v, want %v", l.Value(), want)
	}
	probs := Softmax1D(logits)
	var sum float64
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sums to %v", sum)
	}
	if !(probs[2] > probs[1] && probs[1] > probs[0]) {
		t.Errorf("softmax ordering wrong: %v", probs)
	}
}

func TestSoftmax1DNumericalStability(t *testing.T) {
	logits := NewTensor([]float64{1000, 1001, 999}, 3)
	probs := Softmax1D(logits)
	for _, p := range probs {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("softmax overflowed: %v", probs)
		}
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewMLP(rng, 2, 8, 1)
	opt := NewAdam(0.05)
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 400; epoch++ {
		ZeroGrads(m.Params())
		for i, x := range xs {
			loss := BCEWithLogits(m.Forward(NewTensor(x, 1, 2)), ys[i])
			Backward(loss)
		}
		opt.Step(m.Params(), float64(len(xs)))
	}
	for i, x := range xs {
		logit := m.Forward(NewTensor(x, 1, 2)).Value()
		pred := 0.0
		if logit > 0 {
			pred = 1
		}
		if pred != ys[i] {
			t.Errorf("XOR(%v) predicted %v, want %v (logit %v)", x, pred, ys[i], logit)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	w := NewParam([]float64{5, -3}, 2)
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		w.ZeroGrad()
		loss := SumAll(Mul(w, w))
		Backward(loss)
		opt.Step([]*Tensor{w}, 1)
	}
	for _, v := range w.Data {
		if math.Abs(v) > 1e-2 {
			t.Errorf("Adam did not converge: w=%v", w.Data)
		}
	}
}

func TestAdamGradClipping(t *testing.T) {
	w := NewParam([]float64{0}, 1)
	opt := NewAdam(0.1)
	opt.ClipNorm = 1
	w.Grad[0] = 1e6
	opt.Step([]*Tensor{w}, 1)
	// First Adam step magnitude is at most LR regardless, but the clip must
	// not blow up or NaN.
	if math.IsNaN(w.Data[0]) || math.Abs(w.Data[0]) > 0.2 {
		t.Errorf("clipped step went to %v", w.Data[0])
	}
}

func TestStepLRSchedule(t *testing.T) {
	s := NewStepLR(1e-4, 5)
	if s.At(0) != 1e-4 || s.At(4) != 1e-4 {
		t.Error("first window should keep the base rate")
	}
	if s.At(5) != 5e-5 {
		t.Errorf("At(5) = %v, want 5e-5", s.At(5))
	}
	if s.At(10) != 2.5e-5 {
		t.Errorf("At(10) = %v, want 2.5e-5", s.At(10))
	}
	flat := &StepLR{Base: 0.01, StepEpochs: 0}
	if flat.At(100) != 0.01 {
		t.Error("StepEpochs=0 should disable decay")
	}
}

func TestEarlyStopper(t *testing.T) {
	e := NewEarlyStopper(2)
	steps := []struct {
		loss           float64
		stop, improved bool
	}{
		{1.0, false, true},
		{0.8, false, true},
		{0.9, false, false},
		{0.85, true, false},
	}
	for i, s := range steps {
		stop, improved := e.Observe(s.loss)
		if stop != s.stop || improved != s.improved {
			t.Errorf("step %d: (stop=%v, improved=%v), want (%v, %v)", i, stop, improved, s.stop, s.improved)
		}
	}
	// The best loss is still 0.8: 0.79 improves on it, the patience resets.
	if stop, improved := e.Observe(0.79); stop || !improved {
		t.Errorf("0.79 after best 0.8: (stop=%v, improved=%v), want (false, true)", stop, improved)
	}
}

func TestCloneAndCopyParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 3, 2)
	snapshot := CloneParams(d.Params())
	orig := append([]float64(nil), d.W.Data...)
	d.W.Data[0] += 100
	CopyParams(d.Params(), snapshot)
	for i := range orig {
		if d.W.Data[i] != orig[i] {
			t.Fatal("CopyParams did not restore the snapshot")
		}
	}
}

func TestEmbeddingForward(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewEmbedding(rng, 10, 4)
	out := e.Forward([]int{3, 7})
	if out.Rows() != 2 || out.Cols() != 4 {
		t.Fatalf("embedding shape %v", out.Shape)
	}
	for j := 0; j < 4; j++ {
		if out.At(0, j) != e.Table.At(3, j) {
			t.Error("embedding row mismatch")
		}
	}
}

func TestTransformerEncoderPermutationEquivariance(t *testing.T) {
	// With no positional encoding, permuting the input rows permutes the
	// output rows identically — the property that makes the transformer
	// suitable for candidate sets (Section IV-B).
	rng := rand.New(rand.NewSource(3))
	enc := NewTransformerEncoder(rng, 2, 8, 2, 16, 0)
	x := randParam(rng, 5, 8)
	out := enc.Forward(x, false, rng)

	perm := []int{4, 2, 0, 3, 1}
	permData := make([]float64, x.Numel())
	for i, p := range perm {
		copy(permData[i*8:(i+1)*8], x.Data[p*8:(p+1)*8])
	}
	outPerm := enc.Forward(NewTensor(permData, 5, 8), false, rng)
	for i, p := range perm {
		for j := 0; j < 8; j++ {
			if math.Abs(outPerm.At(i, j)-out.At(p, j)) > 1e-9 {
				t.Fatalf("not permutation-equivariant at (%d,%d)", i, j)
			}
		}
	}
}

func TestLSTMIsOrderSensitive(t *testing.T) {
	// Unlike the transformer, the LSTM encoder depends on input order — the
	// deficiency the DLInfMA-PN ablation exposes.
	rng := rand.New(rand.NewSource(4))
	l := NewLSTM(rng, 4, 6)
	x := randParam(rng, 3, 4)
	out1 := l.Forward(x)
	rev := make([]float64, x.Numel())
	for i := 0; i < 3; i++ {
		copy(rev[i*4:(i+1)*4], x.Data[(2-i)*4:(3-i)*4])
	}
	out2 := l.Forward(NewTensor(rev, 3, 4))
	diff := 0.0
	for i := range out1.Data {
		diff += math.Abs(out1.Data[i] - out2.Data[i])
	}
	if diff < 1e-6 {
		t.Error("LSTM output identical under input reversal; expected order sensitivity")
	}
}

func TestConvOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewConvLayer(rng, 3, 8, 3)
	out := l.Forward(Zeros(3, 9, 9))
	if out.Shape[0] != 8 || out.Shape[1] != 9 || out.Shape[2] != 9 {
		t.Errorf("conv output shape %v, want [8 9 9]", out.Shape)
	}
}

func TestMaxPoolCeilShapes(t *testing.T) {
	out := MaxPool2D(Zeros(2, 9, 9))
	if out.Shape[1] != 5 || out.Shape[2] != 5 {
		t.Errorf("pool 9x9 -> %v, want 5x5", out.Shape[1:])
	}
	out = MaxPool2D(out)
	if out.Shape[1] != 3 || out.Shape[2] != 3 {
		t.Errorf("pool 5x5 -> %v, want 3x3", out.Shape[1:])
	}
}

func TestUpsampleRoundTripShape(t *testing.T) {
	x := NewTensor([]float64{1, 2, 3, 4}, 1, 2, 2)
	up := UpsampleNearest(x, 5, 5)
	if up.Shape[1] != 5 || up.Shape[2] != 5 {
		t.Fatalf("upsample shape %v", up.Shape)
	}
	// Top-left quadrant replicates element (0,0).
	if up.Data[0] != 1 || up.Data[1] != 1 {
		t.Errorf("nearest upsample wrong: %v", up.Data[:5])
	}
}
