package nn

import "math/rand"

// Dense is a fully connected layer: y = xW + b.
type Dense struct {
	W *Tensor // [in, out]
	B *Tensor // [out]
}

// NewDense returns a Dense layer with Xavier-initialized weights.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	return &Dense{
		W: XavierParam(rng, in, out, in, out),
		B: ZeroParam(out),
	}
}

// Forward applies the layer to x of shape [n, in].
func (d *Dense) Forward(x *Tensor) *Tensor {
	return Linear(x, d.W, d.B)
}

// Params returns the trainable parameters.
func (d *Dense) Params() []*Tensor { return []*Tensor{d.W, d.B} }

// LayerNormLayer is layer normalization with learned gain and bias.
type LayerNormLayer struct {
	Gain *Tensor
	Bias *Tensor
	Eps  float64
}

// NewLayerNorm returns a LayerNormLayer over vectors of dimension d.
func NewLayerNorm(d int) *LayerNormLayer {
	return &LayerNormLayer{Gain: OnesParam(d), Bias: ZeroParam(d), Eps: 1e-5}
}

// ForwardResidual normalizes each row of x + r: a residual connection and
// the normalization after it, as one graph node.
func (l *LayerNormLayer) ForwardResidual(x, r *Tensor) *Tensor {
	return AddLayerNorm(x, r, l.Gain, l.Bias, l.Eps)
}

// Params returns the trainable parameters.
func (l *LayerNormLayer) Params() []*Tensor { return []*Tensor{l.Gain, l.Bias} }

// Embedding maps integer ids to dense vectors.
type Embedding struct {
	Table *Tensor // [vocab, dim]
}

// NewEmbedding returns an Embedding with small random initialization.
func NewEmbedding(rng *rand.Rand, vocab, dim int) *Embedding {
	data := make([]float64, vocab*dim)
	for i := range data {
		data[i] = rng.NormFloat64() * 0.1
	}
	return &Embedding{Table: NewParam(data, vocab, dim)}
}

// Forward looks up the embeddings of ids, returning [len(ids), dim].
func (e *Embedding) Forward(ids []int) *Tensor { return Rows(e.Table, ids) }

// Params returns the trainable parameters.
func (e *Embedding) Params() []*Tensor { return []*Tensor{e.Table} }

// MLP is a stack of Dense layers with ReLU activations between them (none
// after the last). It implements the DLInfMA-MLP variant and RankNet's
// scoring tower.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds an MLP with the given layer sizes, e.g. (rng, 10, 16, 1) is
// a 10 -> 16 -> 1 network.
func NewMLP(rng *rand.Rand, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewDense(rng, sizes[i], sizes[i+1]))
	}
	return m
}

// Forward applies the network to x of shape [n, sizes[0]].
func (m *MLP) Forward(x *Tensor) *Tensor {
	for i, l := range m.Layers {
		x = l.Forward(x)
		if i+1 < len(m.Layers) {
			x = ReLU(x)
		}
	}
	return x
}

// Params returns the trainable parameters.
func (m *MLP) Params() []*Tensor {
	var ps []*Tensor
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
