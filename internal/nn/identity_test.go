package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Identity, not tolerance: the kernels of kernels.go and the fused nodes
// built on them (Linear, ScaledMatMulT, SoftmaxMatMul, AddLayerNorm) promise
// the floating-point operations of the code they replaced, in its order.
// These tests hold them to it under math.Float64bits: the kernels against
// the textbook loops below, the fused nodes against the generic ops they
// fuse — which stay public for exactly this — and the transformer layers
// against a replica written in those generic ops.

// refMatMul, refGradA and refGradB are the three products in the reference
// order: the loops MatMul ran before the kernels existed.
func refMatMul(out, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out[i*n+j] = 0
		}
		for kk := 0; kk < k; kk++ {
			av := a[i*k+kk]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[i*n+j] += av * b[kk*n+j]
			}
		}
	}
}

func refGradA(ga, g, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			var s float64
			for j := 0; j < n; j++ {
				s += g[i*n+j] * b[kk*n+j]
			}
			ga[i*k+kk] += s
		}
	}
}

func refGradB(gb, a, g []float64, m, k, n int) {
	for kk := 0; kk < k; kk++ {
		for i := 0; i < m; i++ {
			av := a[i*k+kk]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				gb[kk*n+j] += av * g[i*n+j]
			}
		}
	}
}

// sameBits reports the first index at which two slices differ as bit
// patterns (-1 for none), so that +0 and -0 count as different.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// awkward returns n values in rows of the given width: normal draws salted
// with exact zeros and negative zeros, and every third row ReLU-sparse
// (negatives clamped to zero), the left operand a feed-forward layer sees.
func awkward(rng *rand.Rand, n, width int) []float64 {
	d := make([]float64, n)
	for i := range d {
		v := rng.NormFloat64()
		switch r := rng.Intn(16); {
		case r == 0:
			v = 0
		case r == 1:
			v = math.Copysign(0, -1)
		case (i/width)%3 == 2 && v < 0:
			v = 0
		}
		d[i] = v
	}
	return d
}

// identityDims are the sizes the issue names — the model's own 1, 3, 4, 5,
// 8, 24, 32, the widths either side of each kernel block, and 70 for more
// than one block of everything.
var identityDims = []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 24, 31, 32, 33, 70}

// identityShapes yields every (m, k, n) with two of the three from
// identityDims' model sizes plus seeded random triples in 1…70.
func identityShapes(rng *rand.Rand) [][3]int {
	var out [][3]int
	for _, k := range identityDims {
		for _, n := range identityDims {
			out = append(out, [3]int{1 + rng.Intn(9), k, n})
		}
	}
	for i := 0; i < 60; i++ {
		out = append(out, [3]int{1 + rng.Intn(70), 1 + rng.Intn(70), 1 + rng.Intn(70)})
	}
	return out
}

// kernelOperands is one product's worth of inputs for the three kernels:
// a [m,k], b [k,n], g [m,n] and bias [n]; stale is what out holds before the
// forward (which must overwrite it), ga0 and gb0 what the gradients hold
// before dA and dB (which must add to it); the kernels run as the row blocks
// [0,split) + [split,m) and, for dB, [0,ksplit) + [ksplit,k).
type kernelOperands struct {
	m, k, n, split, ksplit         int
	a, b, g, bias, stale, ga0, gb0 []float64
}

// checkKernels holds the three kernels to the reference loops on o; differ
// reports the first differing index of two slices or -1.
func checkKernels(t testing.TB, o kernelOperands, differ func(got, want []float64) int) {
	t.Helper()
	m, k, n := o.m, o.k, o.n
	fail := func(what string, i int, got, want []float64) {
		t.Helper()
		if i >= 0 {
			t.Fatalf("%s %dx%dx%d: element %d = %v, reference %v", what, m, k, n, i, got[i], want[i])
		}
	}
	want := make([]float64, m*n)
	refMatMul(want, o.a, o.b, m, k, n)
	got := append([]float64(nil), o.stale...)
	matMulRows(got, o.a, o.b, nil, k, n, 0, o.split)
	matMulRows(got, o.a, o.b, nil, k, n, o.split, m)
	fail("forward", differ(got, want), got, want)
	for i := range want {
		want[i] += o.bias[i%n]
	}
	matMulRows(got, o.a, o.b, o.bias, k, n, 0, m)
	fail("forward+bias", differ(got, want), got, want)

	wantA, gotA := append([]float64(nil), o.ga0...), append([]float64(nil), o.ga0...)
	refGradA(wantA, o.g, o.b, m, k, n)
	matMulGradA(gotA, o.g, o.b, k, n, 0, o.split)
	matMulGradA(gotA, o.g, o.b, k, n, o.split, m)
	fail("dA", differ(gotA, wantA), gotA, wantA)

	wantB, gotB := append([]float64(nil), o.gb0...), append([]float64(nil), o.gb0...)
	refGradB(wantB, o.a, o.g, m, k, n)
	matMulGradB(gotB, o.a, o.g, m, k, n, 0, o.ksplit)
	matMulGradB(gotB, o.a, o.g, m, k, n, o.ksplit, k)
	fail("dB", differ(gotB, wantB), gotB, wantB)
}

func TestKernelsMatchReferenceLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, s := range identityShapes(rng) {
		m, k, n := s[0], s[1], s[2]
		checkKernels(t, kernelOperands{
			m: m, k: k, n: n, split: rng.Intn(m + 1), ksplit: rng.Intn(k + 1),
			a: awkward(rng, m*k, k), b: awkward(rng, k*n, n), g: awkward(rng, m*n, n), bias: awkward(rng, n, n),
			stale: awkward(rng, m*n, n), ga0: awkward(rng, m*k, k), gb0: awkward(rng, k*n, n),
		}, sameBits)
	}
}

// fusedCase is one fused node and the composition it must equal. operands
// gives the operands' shapes for a drawn (m, k, n); alias, when set, makes
// the first two operands one tensor (the shapes then have to agree).
type fusedCase struct {
	name     string
	operands func(m, k, n int) [][]int
	fused    func(in []*Tensor) *Tensor
	composed func(in []*Tensor) *Tensor
	alias    bool
}

var fusedCases = func() []fusedCase {
	cases := []fusedCase{
		{
			name:     "Linear",
			operands: func(m, k, n int) [][]int { return [][]int{{m, k}, {k, n}, {n}} },
			fused:    func(in []*Tensor) *Tensor { return Linear(in[0], in[1], in[2]) },
			composed: func(in []*Tensor) *Tensor { return AddRowVec(MatMul(in[0], in[1]), in[2]) },
		},
		{
			// Three projections of one x, as attention takes q, k and v: the
			// order their gradients reach x.Grad in is part of the contract.
			name:     "Linear/shared-input",
			operands: func(m, k, n int) [][]int { return [][]int{{m, k}, {k, n}, {n}} },
			fused: func(in []*Tensor) *Tensor {
				lin := func() *Tensor { return Linear(in[0], in[1], in[2]) }
				return Add(Add(lin(), Tanh(lin())), lin())
			},
			composed: func(in []*Tensor) *Tensor {
				lin := func() *Tensor { return AddRowVec(MatMul(in[0], in[1]), in[2]) }
				return Add(Add(lin(), Tanh(lin())), lin())
			},
		},
		{
			name:     "ScaledMatMulT",
			operands: func(m, k, n int) [][]int { return [][]int{{m, k}, {n, k}} },
			fused:    func(in []*Tensor) *Tensor { return ScaledMatMulT(in[0], in[1], 1/math.Sqrt(float64(in[0].Shape[1]))) },
			composed: func(in []*Tensor) *Tensor {
				return Scale(MatMul(in[0], transpose(in[1])), 1/math.Sqrt(float64(in[0].Shape[1])))
			},
		},
		{
			name:     "SoftmaxMatMul",
			operands: func(m, k, n int) [][]int { return [][]int{{m, k}, {k, n}} },
			fused:    func(in []*Tensor) *Tensor { return SoftmaxMatMul(in[0], in[1]) },
			composed: func(in []*Tensor) *Tensor { return MatMul(softmaxRows(in[0]), in[1]) },
		},
		{
			name:     "AddLayerNorm",
			operands: func(m, k, n int) [][]int { return [][]int{{m, n}, {m, n}, {n}, {n}} },
			fused:    func(in []*Tensor) *Tensor { return AddLayerNorm(in[0], in[1], in[2], in[3], 1e-5) },
			composed: func(in []*Tensor) *Tensor { return layerNorm(Add(in[0], in[1]), in[2], in[3], 1e-5) },
		},
	}
	// The two-operand nodes again with one tensor as both operands (square,
	// so that every shape agrees): both contributions land in one Grad.
	for _, c := range cases[2:] {
		operands := c.operands
		c.name += "/aliased"
		c.operands = func(m, k, n int) [][]int { return operands(m, m, m) }
		c.alias = true
		cases = append(cases, c)
	}
	return cases
}()

// graphInput turns data into an operand. A differentiable one is a fresh
// parameter — routed, when tp is non-nil, through a product with a
// tape-resident tensor of ones (x·1 is x bit for bit), so that the operand
// the op sees is itself arena storage with an arena gradient; a constant
// one is a plain or tape-resident constant.
func graphInput(tp *Tape, data []float64, need bool, shape []int) *Tensor {
	data = append([]float64(nil), data...)
	switch {
	case need && tp != nil:
		ones := tp.NewLeaf(shape...)
		for i := range ones.Data {
			ones.Data[i] = 1
		}
		return Mul(NewParam(data, shape...), ones)
	case need:
		return NewParam(data, shape...)
	case tp != nil:
		return tapeConst(tp, data, shape...)
	}
	return NewTensor(data, shape...)
}

// runGraph builds op over fresh operands, backpropagates Σ y∘w through it
// (w drawn from wseed, so two runs weigh alike) and returns y's data and
// every operand's gradient (nil for a constant).
func runGraph(tp *Tape, op func([]*Tensor) *Tensor, data [][]float64, shapes [][]int, need []bool, alias bool, wseed int64) ([]float64, [][]float64) {
	in := make([]*Tensor, len(data))
	for i := range data {
		if alias && i == 1 {
			in[1] = in[0]
			continue
		}
		in[i] = graphInput(tp, data[i], need[i], shapes[i])
	}
	y := op(in)
	w := awkward(rand.New(rand.NewSource(wseed)), y.Numel(), y.Shape[len(y.Shape)-1])
	Backward(sumAll(Mul(y, NewTensor(w, y.Shape...))))
	grads := make([][]float64, len(in))
	for i, t := range in {
		grads[i] = append([]float64(nil), t.Grad...)
	}
	out := append([]float64(nil), y.Data...)
	if tp != nil {
		tp.Reset()
	}
	return out, grads
}

func TestFusedNodesMatchComposition(t *testing.T) {
	for _, fc := range fusedCases {
		t.Run(fc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			tape := NewTape()
			for si, s := range identityShapes(rng) {
				shapes := fc.operands(s[0], s[1], s[2])
				data := make([][]float64, len(shapes))
				for i, sh := range shapes {
					data[i] = awkward(rng, numel(sh), sh[len(sh)-1])
				}
				// Every needGrad combination on the first shapes, a drawn
				// one afterwards.
				masks := []int{rng.Intn(1 << len(shapes))}
				if si < 6 {
					masks = masks[:0]
					for mask := 0; mask < 1<<len(shapes); mask++ {
						masks = append(masks, mask)
					}
				}
				for _, mask := range masks {
					need := make([]bool, len(shapes))
					for i := range need {
						need[i] = mask&(1<<i) != 0
					}
					wseed := rng.Int63()
					for _, tp := range []*Tape{nil, tape} {
						gotY, gotG := runGraph(tp, fc.fused, data, shapes, need, fc.alias, wseed)
						wantY, wantG := runGraph(tp, fc.composed, data, shapes, need, fc.alias, wseed)
						where := fmt.Sprintf("shapes %v needGrad %v tape %v", shapes, need, tp != nil)
						if i := sameBits(gotY, wantY); i >= 0 {
							t.Fatalf("%s: Data[%d] = %v, composition %v", where, i, gotY[i], wantY[i])
						}
						for o := range gotG {
							if i := sameBits(gotG[o], wantG[o]); i >= 0 {
								t.Fatalf("%s: operand %d Grad[%d] = %v, composition %v", where, o, i, gotG[o][i], wantG[o][i])
							}
						}
					}
				}
			}
		})
	}
}

// composedEncoder is TransformerEncoder.Forward written in the generic ops
// only — the body the layers had before Linear, ScaledMatMulT, SoftmaxMatMul
// and AddLayerNorm — over the same parameters.
func composedEncoder(e *TransformerEncoder, x *Tensor, train bool, rng *rand.Rand) *Tensor {
	dense := func(d *Dense, x *Tensor) *Tensor { return AddRowVec(MatMul(x, d.W), d.B) }
	norm := func(l *LayerNormLayer, x *Tensor) *Tensor { return layerNorm(x, l.Gain, l.Bias, l.Eps) }
	for _, l := range e.Layers {
		m := l.Attn
		outs := make([]*Tensor, m.Heads)
		scale := 1 / math.Sqrt(float64(m.DK))
		for h := 0; h < m.Heads; h++ {
			q := dense(m.WQ[h], x)
			k := dense(m.WK[h], x)
			v := dense(m.WV[h], x)
			outs[h] = MatMul(softmaxRows(Scale(MatMul(q, transpose(k)), scale)), v)
		}
		a := Dropout(dense(m.WO, ConcatCols(outs...)), l.Dropout, train, rng)
		x = norm(l.Norm1, Add(x, a))
		f := dense(l.FF2, ReLU(dense(l.FF1, x)))
		f = Dropout(f, l.Dropout, train, rng)
		x = norm(l.Norm2, Add(x, f))
	}
	return x
}

// The encoder is where one x feeds six projections and a residual, so the
// order in which their gradients accumulate into x.Grad — and, through three
// layers, into every parameter — is exercised end to end: LocMatcher's
// shapes, candidate sets from one to 62 rows, dropout on and off, arena on
// and off.
func TestEncoderMatchesComposedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	enc := NewTransformerEncoder(rng, 3, 8, 2, 32, 0.1)
	params := enc.Params()
	tape := NewTape()
	for _, rows := range []int{1, 2, 5, 28, 62} {
		xs := awkward(rng, rows*8, 8)
		w := awkward(rng, rows*8, 8)
		for _, train := range []bool{false, true} {
			for _, tp := range []*Tape{nil, tape} {
				run := func(forward func(x *Tensor, rng *rand.Rand) *Tensor) ([]float64, [][]float64) {
					ZeroGrads(params)
					x := graphInput(tp, xs, true, []int{rows, 8})
					y := forward(x, rand.New(rand.NewSource(7)))
					Backward(sumAll(Mul(y, NewTensor(w, rows, 8))))
					grads := [][]float64{append([]float64(nil), x.Grad...)}
					for _, p := range params {
						grads = append(grads, append([]float64(nil), p.Grad...))
					}
					out := append([]float64(nil), y.Data...)
					if tp != nil {
						tp.Reset()
					}
					return out, grads
				}
				gotY, gotG := run(func(x *Tensor, rng *rand.Rand) *Tensor { return enc.Forward(x, train, rng) })
				wantY, wantG := run(func(x *Tensor, rng *rand.Rand) *Tensor { return composedEncoder(enc, x, train, rng) })
				where := fmt.Sprintf("rows %d train %v tape %v", rows, train, tp != nil)
				if i := sameBits(gotY, wantY); i >= 0 {
					t.Fatalf("%s: output[%d] = %v, composed %v", where, i, gotY[i], wantY[i])
				}
				for o := range gotG {
					if i := sameBits(gotG[o], wantG[o]); i >= 0 {
						t.Fatalf("%s: gradient %d (0 is x, then Params order) element %d = %v, composed %v",
							where, o, i, gotG[o][i], wantG[o][i])
					}
				}
			}
		}
	}
}
