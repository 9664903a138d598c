package nn

import (
	"math/rand"
	"testing"
)

// trainSmall runs a seeded LocMatcher-shaped training run — encoder over the
// candidates with dropout, additive-attention scores against a context,
// cross-entropy, four Adam steps over mini-batches of three candidate sets —
// and returns every parameter's final values in Params order.
func trainSmall() [][]float64 {
	rng := rand.New(rand.NewSource(17))
	enc := NewTransformerEncoder(rng, 2, 8, 2, 32, 0.1)
	att := NewAdditiveAttention(rng, 8, 4, 32)
	params := append(enc.Params(), att.Params()...)
	adam := NewAdam(1e-2)
	tape := NewTape()
	drop := rand.New(rand.NewSource(23))
	for step := 0; step < 4; step++ {
		for i, rows := range []int{1, 5, 28} {
			x := tapeConst(tape, awkward(rng, rows*8, 8), rows, 8)
			c := tapeConst(tape, awkward(rng, 4, 4), 1, 4)
			Backward(CrossEntropy(att.Scores(enc.Forward(x, true, drop), c), (step+i)%rows))
			tape.Reset()
		}
		adam.Step(params, 3)
		ZeroGrads(params)
	}
	final := make([][]float64, len(params))
	for i, p := range params {
		final[i] = append([]float64(nil), p.Data...)
	}
	return final
}

// The kernels are held to each other one by one elsewhere; this holds them
// through a whole training run, where a difference in any one of them would
// compound across layers, the backward pass and the optimiser: the lane
// path's final parameters equal the Go path's bit for bit. Off AVX2 only the
// Go path runs.
func TestTrainingRunMatchesAcrossKernelPaths(t *testing.T) {
	var want [][]float64
	runKernelPaths(t, func(t *testing.T) {
		got := trainSmall()
		if want == nil {
			want = got
			return
		}
		for p := range got {
			if i := sameBits(got[p], want[p]); i >= 0 {
				t.Fatalf("parameter %d element %d = %v, Go path %v", p, i, got[p][i], want[p][i])
			}
		}
	})
}
