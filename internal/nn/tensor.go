// Package nn is a self-contained neural-network substrate: a reverse-mode
// autodiff tensor engine with the layers, losses and optimizers the paper's
// models need — dense layers, layer normalization, multi-head self-attention
// and transformer encoders (LocMatcher), an LSTM (the DLInfMA-PN variant),
// 2-D convolutions, pooling and upsampling (the UNet-based baseline), and
// Adam with step-decay learning-rate scheduling and early stopping.
//
// The engine works one sample at a time — LocMatcher's input is a
// variable-length set of location candidates, so per-sample graphs with
// gradient accumulation across a mini-batch reproduce PyTorch's semantics
// without padding or masking. Gradient correctness is property-tested
// against finite differences.
//
// Two efficiency facilities support production-scale training (the paper's
// Section V-F trajectory-level parallelization, applied to the second
// stage): Tape, an arena that recycles one sample's graph tensors for the
// next sample instead of re-allocating them, and DataParallel, a
// deterministic data-parallel training harness with per-worker parameter
// replicas and ordered gradient reduction.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense float64 tensor participating in a dynamically built
// computation graph. Leaf tensors created with NewParam accumulate gradients
// across calls to Backward until ZeroGrad.
type Tensor struct {
	Shape []int
	Data  []float64
	Grad  []float64

	needGrad bool
	parents  []*Tensor
	// back is the op's backward step, called with the op's own result. The
	// ops of ops.go install plain functions — everything they need is
	// reachable from the result: its parents, its Grad and what the forward
	// saved below — so a graph node costs no closure; an op with more state
	// than that (the convolutions) installs a closure over it.
	back func(out *Tensor)
	// saved is what the op's forward leaves for its backward: scratch
	// buffers with the graph's lifetime (a dropout mask, layer norm's x̂ and
	// 1/σ, softmax probabilities), a scalar and an index.
	saved  [2][]float64
	savedF float64
	savedI int
	// tape, when non-nil, is the arena this tensor's storage came from; op
	// results inherit it from their parents (see Tape).
	tape *Tape
	// visited is Backward's traversal mark; always false outside Backward.
	visited bool
	// Backing arrays of Shape and parents for the usual ranks and arities,
	// so that a result is one allocation (none on a tape), not three.
	shapeArr   [4]int
	parentsArr [4]*Tensor
}

func numel(shape []int) int {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			// The message gets a copy, so that shape itself does not escape
			// and an op's []int{m, n} literal stays on its stack.
			panic(fmt.Sprintf("nn: non-positive dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= s
	}
	return n
}

// NewTensor wraps data in a constant (non-differentiable) tensor of the
// given shape. The data slice is used directly, not copied.
func NewTensor(data []float64, shape ...int) *Tensor {
	if len(data) != numel(shape) {
		panic(fmt.Sprintf("nn: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Zeros returns a constant tensor of zeros.
func Zeros(shape ...int) *Tensor {
	return NewTensor(make([]float64, numel(shape)), shape...)
}

// NewParam returns a trainable tensor initialized to the given data.
func NewParam(data []float64, shape ...int) *Tensor {
	t := NewTensor(data, shape...)
	t.needGrad = true
	t.Grad = make([]float64, len(t.Data))
	return t
}

// XavierParam returns a trainable tensor with Glorot-uniform initialization
// for a layer with the given fan-in and fan-out.
func XavierParam(rng *rand.Rand, fanIn, fanOut int, shape ...int) *Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	data := make([]float64, numel(shape))
	for i := range data {
		data[i] = (rng.Float64()*2 - 1) * limit
	}
	return NewParam(data, shape...)
}

// ZeroParam returns a trainable tensor initialized to zero (biases).
func ZeroParam(shape ...int) *Tensor {
	return NewParam(make([]float64, numel(shape)), shape...)
}

// OnesParam returns a trainable tensor initialized to one (layer-norm gains).
func OnesParam(shape ...int) *Tensor {
	data := make([]float64, numel(shape))
	for i := range data {
		data[i] = 1
	}
	return NewParam(data, shape...)
}

// Numel returns the number of elements.
func (t *Tensor) Numel() int { return len(t.Data) }

// ensureGrad allocates the zeroed gradient buffer if needed, from the
// tensor's tape when it has one.
func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		if t.tape != nil {
			t.Grad = t.tape.zeros(len(t.Data))
		} else {
			t.Grad = make([]float64, len(t.Data))
		}
	}
}

// ZeroGrad clears the accumulated gradient.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// newResult allocates the output tensor of an op over the given parents. It
// propagates needGrad (recording the parents only when one of them is
// differentiable) and the tape: when any parent lives on an arena, the
// result does too, so one NewLeaf at the graph's inputs routes the whole
// forward/backward pass through recycled storage. Graphs must not mix
// tensors from different tapes.
//
// On a tape the result's Data is NOT zeroed: every op's forward writes every
// element of its result.
func newResult(shape []int, parents ...*Tensor) *Tensor {
	var tp *Tape
	need := false
	for _, p := range parents {
		if p.tape != nil && tp == nil {
			tp = p.tape
		}
		if p.needGrad {
			need = true
		}
	}
	var out *Tensor
	if tp != nil {
		out = tp.tensor()
		out.setShape(shape)
		out.Data = tp.alloc(numel(shape))
	} else {
		out = &Tensor{}
		out.setShape(shape)
		out.Data = make([]float64, numel(shape))
	}
	if need {
		out.needGrad = true
		out.parents = append(out.parentsArr[:0], parents...)
	}
	return out
}

// setShape copies shape into the tensor's own backing array.
func (t *Tensor) setShape(shape []int) {
	t.Shape = append(t.shapeArr[:0], shape...)
}

// setBack installs fn as the backward step if the output is differentiable.
func (t *Tensor) setBack(fn func(out *Tensor)) {
	if t.needGrad {
		t.back = fn
	}
}

// Backward runs reverse-mode differentiation from t, which must be a scalar
// (one element). Gradients accumulate into every reachable differentiable
// tensor.
//
// Concurrent Backward calls are allowed only on disjoint graphs (no shared
// differentiable tensors): gradient accumulation and the traversal marks
// both mutate the reachable tensors. Data-parallel training therefore gives
// each worker its own parameter replica (see DataParallel).
func Backward(t *Tensor) {
	if t.Numel() != 1 {
		panic(fmt.Sprintf("nn: Backward requires a scalar, got shape %v", t.Shape))
	}
	if !t.needGrad {
		return
	}
	// Topological order by post-order DFS, marking tensors in place instead
	// of tracking them in a map (the marks are cleared before returning).
	// The order slice is recycled through the tape when there is one.
	var order []*Tensor
	if t.tape != nil {
		order = t.tape.order[:0]
	}
	order = visit(t, order)
	for _, n := range order {
		n.ensureGrad()
	}
	t.Grad[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		if n := order[i]; n.back != nil {
			n.back(n)
		}
	}
	for _, n := range order {
		n.visited = false
	}
	if t.tape != nil {
		t.tape.order = order
	}
}

// visit appends the differentiable tensors reachable from n that are not yet
// marked to order, parents before children, marking them.
func visit(n *Tensor, order []*Tensor) []*Tensor {
	if n.visited || !n.needGrad {
		return order
	}
	n.visited = true
	for _, p := range n.parents {
		order = visit(p, order)
	}
	return append(order, n)
}

// Value returns the single element of a scalar tensor.
func (t *Tensor) Value() float64 {
	if t.Numel() != 1 {
		panic(fmt.Sprintf("nn: Value requires a scalar, got shape %v", t.Shape))
	}
	return t.Data[0]
}
