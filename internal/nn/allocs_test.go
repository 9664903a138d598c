package nn

import (
	"math/rand"
	"testing"
)

// One warm training step of a LocMatcher-shaped graph — three encoder layers
// over 28 candidates with dropout, additive attention, cross-entropy,
// Backward, Reset — allocates three objects, the per-layer slice of
// attention heads, and nothing per graph node: the tape hands out tensors
// and buffers, results carry their own shape and parents, and the ops'
// backward steps are plain functions. The bound is the measured count; a
// change that brings back a per-node allocation (a closure, a parents slice,
// a shape) multiplies it by the ~140 nodes of the graph.
func TestTrainingStepAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	enc := NewTransformerEncoder(rng, 3, 8, 2, 32, 0.1)
	att := NewAdditiveAttention(rng, 8, 4, 32)
	params := append(enc.Params(), att.Params()...)
	in := make([]float64, 28*8)
	fillInput(rng, in)
	ctx := []float64{0.1, -0.2, 0.3, 0.4}
	tape := NewTape()
	step := func() {
		x := tapeConst(tape, in, 28, 8)
		c := tapeConst(tape, ctx, 1, 4)
		Backward(CrossEntropy(att.Scores(enc.Forward(x, true, rng), c), 3))
		tape.Reset()
	}
	step() // sizes the arena
	ZeroGrads(params)
	const want = 3
	if got := testing.AllocsPerRun(20, step); got > want {
		t.Fatalf("warm training step: %.0f allocs, want <= %d", got, want)
	}
}
