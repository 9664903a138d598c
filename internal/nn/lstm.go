package nn

import "math/rand"

// LSTM is a single-layer LSTM over a sequence of feature rows. It backs the
// DLInfMA-PN variant, which replaces LocMatcher's transformer encoder with a
// recurrent encoder (as [18] did) and therefore suffers from long-range
// dependency decay — the effect the paper's ablation demonstrates.
type LSTM struct {
	Hidden int
	// One Dense per gate over the concatenated [x_t, h_{t-1}] vector.
	GateI *Dense
	GateF *Dense
	GateO *Dense
	GateG *Dense
}

// NewLSTM returns an LSTM with the given input and hidden sizes.
func NewLSTM(rng *rand.Rand, in, hidden int) *LSTM {
	mk := func() *Dense { return NewDense(rng, in+hidden, hidden) }
	l := &LSTM{Hidden: hidden, GateI: mk(), GateF: mk(), GateO: mk(), GateG: mk()}
	// Standard trick: initialize the forget-gate bias positive so early
	// training does not erase state.
	for i := range l.GateF.B.Data {
		l.GateF.B.Data[i] = 1
	}
	return l
}

// Forward runs the LSTM over x [n, in] and returns the hidden states
// [n, hidden], one row per timestep.
func (l *LSTM) Forward(x *Tensor) *Tensor {
	n := x.Shape[0]
	h := Zeros(1, l.Hidden)
	c := Zeros(1, l.Hidden)
	outs := make([]*Tensor, n)
	for t := 0; t < n; t++ {
		xt := Rows(x, []int{t}) // [1, in]
		xh := ConcatCols(xt, h) // [1, in+hidden]
		i := Sigmoid(l.GateI.Forward(xh))
		f := Sigmoid(l.GateF.Forward(xh))
		o := Sigmoid(l.GateO.Forward(xh))
		g := Tanh(l.GateG.Forward(xh))
		c = Add(Mul(f, c), Mul(i, g))
		h = Mul(o, Tanh(c))
		outs[t] = h
	}
	return ConcatRows(outs...)
}

// Params returns the trainable parameters.
func (l *LSTM) Params() []*Tensor {
	var ps []*Tensor
	for _, d := range []*Dense{l.GateI, l.GateF, l.GateO, l.GateG} {
		ps = append(ps, d.Params()...)
	}
	return ps
}
