package nn

import (
	"math"
	"math/rand"
)

// MultiHeadSelfAttention implements scaled dot-product self-attention with
// per-head projection matrices. For LocMatcher the sequence axis is the set
// of location candidates of one address; there is no positional encoding
// because candidate order carries no meaning (Section IV-B).
type MultiHeadSelfAttention struct {
	Heads int
	DK    int // per-head key dimension
	WQ    []*Dense
	WK    []*Dense
	WV    []*Dense
	WO    *Dense
}

// NewMultiHeadSelfAttention builds attention over model dimension d with the
// given number of heads. d must be divisible by heads.
func NewMultiHeadSelfAttention(rng *rand.Rand, d, heads int) *MultiHeadSelfAttention {
	if d%heads != 0 {
		panic("nn: model dimension must be divisible by the number of heads")
	}
	dk := d / heads
	m := &MultiHeadSelfAttention{Heads: heads, DK: dk, WO: NewDense(rng, d, d)}
	for h := 0; h < heads; h++ {
		m.WQ = append(m.WQ, NewDense(rng, d, dk))
		m.WK = append(m.WK, NewDense(rng, d, dk))
		m.WV = append(m.WV, NewDense(rng, d, dk))
	}
	return m
}

// Forward applies self-attention to x of shape [n, d].
func (m *MultiHeadSelfAttention) Forward(x *Tensor) *Tensor {
	outs := make([]*Tensor, m.Heads)
	scale := 1 / math.Sqrt(float64(m.DK))
	for h := 0; h < m.Heads; h++ {
		q := m.WQ[h].Forward(x) // [n, dk]
		k := m.WK[h].Forward(x)
		v := m.WV[h].Forward(x)
		scores := ScaledMatMulT(q, k, scale) // q·kᵀ/√dk, [n, n]
		outs[h] = SoftmaxMatMul(scores, v)   // softmax(scores)·v, [n, dk]
	}
	return m.WO.Forward(ConcatCols(outs...))
}

// Params implements Layer.
func (m *MultiHeadSelfAttention) Params() []*Tensor {
	ps := m.WO.Params()
	for h := 0; h < m.Heads; h++ {
		ps = append(ps, m.WQ[h].Params()...)
		ps = append(ps, m.WK[h].Params()...)
		ps = append(ps, m.WV[h].Params()...)
	}
	return ps
}

// TransformerEncoderLayer is one pre-activation-free ("post-norm", as in the
// original transformer and the paper's Figure 8) encoder layer: multi-head
// self-attention and a position-wise feed-forward network, each wrapped in a
// residual connection followed by layer normalization.
type TransformerEncoderLayer struct {
	Attn    *MultiHeadSelfAttention
	FF1     *Dense
	FF2     *Dense
	Norm1   *LayerNormLayer
	Norm2   *LayerNormLayer
	Dropout float64
}

// NewTransformerEncoderLayer builds an encoder layer with model dimension d,
// the given head count, feed-forward dimension dff, and dropout probability.
func NewTransformerEncoderLayer(rng *rand.Rand, d, heads, dff int, dropout float64) *TransformerEncoderLayer {
	return &TransformerEncoderLayer{
		Attn:    NewMultiHeadSelfAttention(rng, d, heads),
		FF1:     NewDense(rng, d, dff),
		FF2:     NewDense(rng, dff, d),
		Norm1:   NewLayerNorm(d),
		Norm2:   NewLayerNorm(d),
		Dropout: dropout,
	}
}

// Forward applies the layer to x of shape [n, d].
func (l *TransformerEncoderLayer) Forward(x *Tensor, train bool, rng *rand.Rand) *Tensor {
	a := Dropout(l.Attn.Forward(x), l.Dropout, train, rng)
	x = l.Norm1.ForwardResidual(x, a)
	f := l.FF2.Forward(ReLU(l.FF1.Forward(x)))
	f = Dropout(f, l.Dropout, train, rng)
	return l.Norm2.ForwardResidual(x, f)
}

// Params implements Layer.
func (l *TransformerEncoderLayer) Params() []*Tensor {
	ps := l.Attn.Params()
	ps = append(ps, l.FF1.Params()...)
	ps = append(ps, l.FF2.Params()...)
	ps = append(ps, l.Norm1.Params()...)
	ps = append(ps, l.Norm2.Params()...)
	return ps
}

// TransformerEncoder stacks N encoder layers (the paper uses N = 3 with 2
// heads and 32 feed-forward neurons).
type TransformerEncoder struct {
	Layers []*TransformerEncoderLayer
}

// NewTransformerEncoder builds a stack of n encoder layers.
func NewTransformerEncoder(rng *rand.Rand, n, d, heads, dff int, dropout float64) *TransformerEncoder {
	enc := &TransformerEncoder{}
	for i := 0; i < n; i++ {
		enc.Layers = append(enc.Layers, NewTransformerEncoderLayer(rng, d, heads, dff, dropout))
	}
	return enc
}

// Forward applies all layers to x of shape [n, d].
func (e *TransformerEncoder) Forward(x *Tensor, train bool, rng *rand.Rand) *Tensor {
	for _, l := range e.Layers {
		x = l.Forward(x, train, rng)
	}
	return x
}

// Params implements Layer.
func (e *TransformerEncoder) Params() []*Tensor {
	var ps []*Tensor
	for _, l := range e.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// AdditiveAttention implements the context-vector attention of Equation (3):
// s_k = v^T tanh(W z_k + U c + b), scoring each row z_k of the candidate
// embedding matrix against the address context vector c.
type AdditiveAttention struct {
	W *Dense  // z -> p (weight [z,p], bias plays the role of b)
	U *Tensor // [m, p], context projection (no second bias)
	V *Tensor // [p, 1]
}

// NewAdditiveAttention builds the attention with embedding dim z, context
// dim m, and hidden dim p (the paper sets p = 32).
func NewAdditiveAttention(rng *rand.Rand, z, m, p int) *AdditiveAttention {
	return &AdditiveAttention{
		W: NewDense(rng, z, p),
		U: XavierParam(rng, m, p, m, p),
		V: XavierParam(rng, p, 1, p, 1),
	}
}

// Scores returns the unnormalized matching scores [n,1] of candidate
// embeddings z [n, zdim] against context c [1, m]. Pass a nil context to
// drop the U·c term (the DLInfMA-nA ablation).
func (a *AdditiveAttention) Scores(z, c *Tensor) *Tensor {
	h := a.W.Forward(z) // W z + b, [n, p]
	if c != nil {
		uc := MatMul(c, a.U) // [1, p]
		h = AddRowVec(h, uc)
	}
	return MatMul(Tanh(h), a.V) // [n, 1]
}

// Params implements Layer.
func (a *AdditiveAttention) Params() []*Tensor {
	return append(a.W.Params(), a.U, a.V)
}
