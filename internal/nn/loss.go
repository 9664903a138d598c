package nn

import (
	"fmt"
	"math"
)

// CrossEntropy computes -log softmax(logits)[target] for a logits tensor
// with one element per class (any shape; it is flattened). This is the
// LocMatcher training loss: the candidates' matching scores are normalized
// by softmax and the true candidate's probability is maximized.
func CrossEntropy(logits *Tensor, target int) *Tensor {
	n := logits.Numel()
	if target < 0 || target >= n {
		panic(fmt.Sprintf("nn: CrossEntropy target %d out of range [0,%d)", target, n))
	}
	out := newResult([]int{1}, logits)
	maxv := logits.Data[0]
	for _, v := range logits.Data[1:] {
		if v > maxv {
			maxv = v
		}
	}
	probs := graphScratch(out, n)
	expShifted(probs, logits.Data, maxv)
	var sum float64
	for _, e := range probs {
		sum += e
	}
	for i := range probs {
		probs[i] /= sum
	}
	out.Data[0] = -math.Log(math.Max(probs[target], 1e-300))
	out.saved[0], out.savedI = probs, target
	out.setBack(crossEntropyBack)
	return out
}

func crossEntropyBack(out *Tensor) {
	logits, probs, target := out.parents[0], out.saved[0], out.savedI
	logits.ensureGrad()
	g := out.Grad[0]
	for i := range probs {
		d := probs[i]
		if i == target {
			d -= 1
		}
		logits.Grad[i] += g * d
	}
}

// Softmax1D returns the softmax of a flattened tensor as a probability
// vector of the same shape. Inference-time counterpart of CrossEntropy.
func Softmax1D(logits *Tensor) []float64 {
	n := logits.Numel()
	out := make([]float64, n)
	maxv := logits.Data[0]
	for _, v := range logits.Data[1:] {
		if v > maxv {
			maxv = v
		}
	}
	expShifted(out, logits.Data, maxv)
	var sum float64
	for _, e := range out {
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// BCEWithLogits computes the binary cross-entropy of a single logit against
// label y in {0,1}, using the numerically stable formulation
// max(x,0) - x*y + log(1+exp(-|x|)). It drives the binary classifiers
// (DLInfMA-MLP) and RankNet's pairwise loss.
func BCEWithLogits(logit *Tensor, y float64) *Tensor {
	if logit.Numel() != 1 {
		panic(fmt.Sprintf("nn: BCEWithLogits requires a scalar logit, got %v", logit.Shape))
	}
	out := newResult([]int{1}, logit)
	x := logit.Data[0]
	out.Data[0] = math.Max(x, 0) - x*y + math.Log1p(math.Exp(-math.Abs(x)))
	out.setBack(func(out *Tensor) {
		logit.ensureGrad()
		p := 1 / (1 + math.Exp(-x))
		logit.Grad[0] += out.Grad[0] * (p - y)
	})
	return out
}

// WeightedBCEWithLogits is BCEWithLogits scaled by a per-sample weight,
// used to implement the paper's 8:2 class weighting for imbalanced labels.
func WeightedBCEWithLogits(logit *Tensor, y, weight float64) *Tensor {
	return Scale(BCEWithLogits(logit, y), weight)
}

// PixelCrossEntropy computes -log softmax(logits over all elements)[target]
// where logits is a [1,H,W] or [H,W] map and target is a flat pixel index.
// This is the UNet-based baseline's training loss: the ground-truth pixel's
// probability is maximized over the whole spatial grid.
func PixelCrossEntropy(logits *Tensor, target int) *Tensor {
	return CrossEntropy(logits, target)
}
