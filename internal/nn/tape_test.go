package nn

import (
	"context"
	"math/rand"
	"testing"
)

// buildLoss runs a small Dense -> LayerNorm -> Dropout-free graph ending in
// CrossEntropy, with x as the (already filled) input tensor.
func buildLoss(d *Dense, ln *LayerNormLayer, x *Tensor) *Tensor {
	h := Tanh(d.Forward(x))
	h = layerNorm(h, ln.Gain, ln.Bias, ln.Eps)
	return CrossEntropy(h, 1)
}

// tapeConst is a tape leaf holding a copy of data.
func tapeConst(tp *Tape, data []float64, shape ...int) *Tensor {
	t := tp.NewLeaf(shape...)
	copy(t.Data, data)
	return t
}

func fillInput(rng *rand.Rand, data []float64) {
	for i := range data {
		data[i] = rng.NormFloat64()
	}
}

func TestTapeGraphMatchesHeapBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDense(rng, 6, 4)
	ln := NewLayerNorm(4)
	params := append(d.Params(), ln.Params()...)
	in := make([]float64, 1*6)
	fillInput(rand.New(rand.NewSource(9)), in)

	// Heap reference.
	lossHeap := buildLoss(d, ln, NewTensor(append([]float64(nil), in...), 1, 6))
	Backward(lossHeap)
	gradsHeap := make([][]float64, len(params))
	for i, p := range params {
		gradsHeap[i] = append([]float64(nil), p.Grad...)
	}
	ZeroGrads(params)

	// Tape run.
	tape := NewTape()
	lossTape := buildLoss(d, ln, tapeConst(tape, in, 1, 6))
	if lossTape.Value() != lossHeap.Value() {
		t.Fatalf("tape loss %v != heap loss %v", lossTape.Value(), lossHeap.Value())
	}
	Backward(lossTape)
	for i, p := range params {
		for j, g := range p.Grad {
			if g != gradsHeap[i][j] {
				t.Fatalf("param %d grad[%d]: tape %v != heap %v", i, j, g, gradsHeap[i][j])
			}
		}
	}
	tape.Reset()
}

func TestTapeResetReuseBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDense(rng, 6, 4)
	ln := NewLayerNorm(4)
	params := append(d.Params(), ln.Params()...)
	in := make([]float64, 1*6)
	fillInput(rand.New(rand.NewSource(9)), in)

	tape := NewTape()
	run := func() (float64, [][]float64) {
		loss := buildLoss(d, ln, tapeConst(tape, in, 1, 6))
		Backward(loss)
		v := loss.Value()
		grads := make([][]float64, len(params))
		for i, p := range params {
			grads[i] = append([]float64(nil), p.Grad...)
		}
		ZeroGrads(params)
		tape.Reset()
		return v, grads
	}
	v1, g1 := run()
	v2, g2 := run() // second pass recycles every tensor and buffer
	if v1 != v2 {
		t.Fatalf("reused-tape loss %v != first-pass loss %v", v2, v1)
	}
	for i := range g1 {
		for j := range g1[i] {
			if g1[i][j] != g2[i][j] {
				t.Fatalf("param %d grad[%d] differs across tape reuse", i, j)
			}
		}
	}
}

func TestTapeReducesAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDense(rng, 6, 4)
	ln := NewLayerNorm(4)
	params := append(d.Params(), ln.Params()...)
	in := make([]float64, 1*6)
	fillInput(rand.New(rand.NewSource(9)), in)

	heap := testing.AllocsPerRun(50, func() {
		Backward(buildLoss(d, ln, NewTensor(in, 1, 6)))
		ZeroGrads(params)
	})
	tape := NewTape()
	taped := testing.AllocsPerRun(50, func() {
		Backward(buildLoss(d, ln, tapeConst(tape, in, 1, 6)))
		ZeroGrads(params)
		tape.Reset()
	})
	if taped >= heap/2 {
		t.Fatalf("tape does not cut allocations: heap %.0f allocs/run, tape %.0f", heap, taped)
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		hits := make([]int, 23)
		if err := ParallelForCtx(context.Background(), workers, len(hits), func(i int) { hits[i]++ }); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
}

func TestDataParallelReduceIsOrderedAndZeroesReplicas(t *testing.T) {
	master := []*Tensor{ZeroParam(2)}
	repA := []*Tensor{ZeroParam(2)}
	repB := []*Tensor{ZeroParam(2)}
	repA[0].Grad = []float64{1, 2}
	repB[0].Grad = []float64{10, 20}
	dp := NewDataParallel(master, repA, repB)
	dp.Reduce()
	if master[0].Grad[0] != 11 || master[0].Grad[1] != 22 {
		t.Fatalf("reduced grads = %v, want [11 22]", master[0].Grad)
	}
	for _, g := range append(repA[0].Grad, repB[0].Grad...) {
		if g != 0 {
			t.Fatalf("replica grads not zeroed after Reduce")
		}
	}
}

func TestDataParallelRunShardsStatically(t *testing.T) {
	master := []*Tensor{ZeroParam(1)}
	reps := [][]*Tensor{{ZeroParam(1)}, {ZeroParam(1)}, {ZeroParam(1)}}
	dp := NewDataParallel(master, reps...)
	owner := make([]int, 10)
	_ = dp.RunCtx(context.Background(), len(owner), func(w, i int) { owner[i] = w })
	for i, w := range owner {
		if w != i%3 {
			t.Fatalf("index %d ran on worker %d, want %d", i, w, i%3)
		}
	}
}

func TestDataParallelSyncBroadcasts(t *testing.T) {
	master := []*Tensor{NewParam([]float64{3, 4}, 2)}
	rep := []*Tensor{ZeroParam(2)}
	dp := NewDataParallel(master, rep)
	dp.Sync()
	if rep[0].Data[0] != 3 || rep[0].Data[1] != 4 {
		t.Fatalf("replica data = %v after Sync", rep[0].Data)
	}
}
