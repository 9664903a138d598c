package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// axisData generates a binary classification problem separable on feature 0
// at threshold 0.5.
func axisData(rng *rand.Rand, n int, noise float64) (x [][]float64, y []float64) {
	for i := 0; i < n; i++ {
		f := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		label := 0.0
		if f[0] > 0.5 {
			label = 1
		}
		if rng.Float64() < noise {
			label = 1 - label
		}
		x = append(x, f)
		y = append(y, label)
	}
	return x, y
}

func accuracy(pred func([]float64) float64, x [][]float64, y []float64) float64 {
	correct := 0
	for i := range x {
		p := 0.0
		if pred(x[i]) > 0.5 {
			p = 1
		}
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}

func TestTreeLearnsAxisSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := axisData(rng, 500, 0)
	tr := Fit(x, y, nil, Config{MaxDepth: 3})
	if acc := accuracy(tr.Predict, x, y); acc < 0.99 {
		t.Errorf("train accuracy %v, want ~1.0", acc)
	}
	// A binary tree of depth at most 3 has at most 2^4-1 nodes.
	if len(tr.nodes) > 15 {
		t.Errorf("%d nodes exceed the depth-3 limit", len(tr.nodes))
	}
}

func TestTreePureNodeStopsGrowing(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{1, 1, 1, 1}
	tr := Fit(x, y, nil, Config{})
	if len(tr.nodes) != 1 {
		t.Errorf("pure targets grew %d nodes, want a lone leaf", len(tr.nodes))
	}
	if tr.Predict([]float64{9}) != 1 {
		t.Errorf("prediction %v, want 1", tr.Predict([]float64{9}))
	}
}

func TestTreeEmptyInput(t *testing.T) {
	tr := Fit(nil, nil, nil, Config{})
	if got := tr.Predict([]float64{1, 2}); got != 0 {
		t.Errorf("empty-fit tree predicts %v, want 0", got)
	}
}

func TestTreeMaxLeafNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Highly fragmented target to force many candidate splits.
	var x [][]float64
	var y []float64
	for i := 0; i < 800; i++ {
		v := rng.Float64() * 100
		x = append(x, []float64{v})
		y = append(y, math.Mod(math.Floor(v), 7))
	}
	for _, budget := range []int{2, 8, 64} {
		tr := Fit(x, y, nil, Config{MaxLeafNodes: budget})
		// Every split turns one leaf into two: L leaves take 2L-1 nodes.
		if leaves := (len(tr.nodes) + 1) / 2; leaves > budget {
			t.Errorf("budget %d: got %d leaves", budget, leaves)
		}
	}
}

func TestTreeBestFirstPicksLargestGainFirst(t *testing.T) {
	// Feature 0 perfectly separates; feature 1 is useless. With a 2-leaf
	// budget, the single split must be on feature 0.
	x := [][]float64{{0, 5}, {0, 1}, {1, 5}, {1, 1}}
	y := []float64{0, 0, 1, 1}
	tr := Fit(x, y, nil, Config{MaxLeafNodes: 2})
	if tr.nodes[0].feature != 0 {
		t.Errorf("root split on feature %d, want 0", tr.nodes[0].feature)
	}
}

func TestTreeSampleWeights(t *testing.T) {
	// Two conflicting points at the same location: the heavier one wins.
	x := [][]float64{{1}, {1}}
	y := []float64{0, 1}
	w := []float64{1, 9}
	tr := Fit(x, y, w, Config{})
	if p := tr.Predict([]float64{1}); math.Abs(p-0.9) > 1e-9 {
		t.Errorf("weighted mean = %v, want 0.9", p)
	}
}

func TestTreeMinLeaf(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0, 0, 1, 1}
	tr := Fit(x, y, nil, Config{MinLeaf: 2})
	// The only legal split is the middle; leaves must hold >= 2 samples.
	if len(tr.nodes) != 3 {
		t.Errorf("got %d nodes, want one split and 2 leaves", len(tr.nodes))
	}
}

func TestTreeRegression(t *testing.T) {
	// y = step function of x; tree should recover it exactly.
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		v := float64(i) / 200
		x = append(x, []float64{v})
		target := 1.0
		if v < 0.3 {
			target = -2
		} else if v < 0.7 {
			target = 0.5
		}
		y = append(y, target)
	}
	tr := Fit(x, y, nil, Config{MaxDepth: 4})
	var sse float64
	for i := range x {
		d := tr.Predict(x[i]) - y[i]
		sse += d * d
	}
	if sse > 1e-9 {
		t.Errorf("step-function SSE = %v, want ~0", sse)
	}
}

func TestTreePredictionIsTrainingMeanProperty(t *testing.T) {
	// For any dataset, an unsplittable (depth-0) tree predicts the weighted
	// mean of targets.
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		var x [][]float64
		var y []float64
		var sum float64
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			v = math.Mod(v, 100)
			x = append(x, []float64{float64(i)})
			y = append(y, v)
			sum += v
		}
		tr := Fit(x, y, nil, Config{MaxLeafNodes: 1})
		want := sum / float64(len(y))
		return math.Abs(tr.Predict([]float64{0})-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestForestBeatsSingleTreeOnNoisyData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xTrain, yTrain := axisData(rng, 400, 0.25)
	xTest, yTest := axisData(rng, 400, 0)

	f := FitForest(xTrain, yTrain, nil, ForestConfig{NTrees: 50, Tree: Config{MaxDepth: 6}, Seed: 7})
	if acc := accuracy(f.Predict, xTest, yTest); acc < 0.9 {
		t.Errorf("forest test accuracy %v, want >= 0.9", acc)
	}
}

func TestForestEmptyAndDefaults(t *testing.T) {
	f := FitForest(nil, nil, nil, ForestConfig{})
	if f.Predict([]float64{1}) != 0 {
		t.Error("empty forest should predict 0")
	}
	f = FitForest([][]float64{{1}, {2}}, []float64{0, 1}, nil, ForestConfig{NTrees: 3, Seed: 1})
	if len(f.Trees) != 3 {
		t.Errorf("got %d trees, want 3", len(f.Trees))
	}
}

func TestGBDTLearnsNonLinearBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// XOR-like checkerboard: impossible for one stump, easy for boosting.
	var x [][]float64
	var y []float64
	for i := 0; i < 600; i++ {
		a, b := rng.Float64(), rng.Float64()
		label := 0.0
		if (a > 0.5) != (b > 0.5) {
			label = 1
		}
		x = append(x, []float64{a, b})
		y = append(y, label)
	}
	g := FitGBDT(x, y, nil, GBDTConfig{Stages: 80, LearningRate: 0.3, Tree: Config{MaxDepth: 3}})
	if acc := accuracy(g.Predict, x, y); acc < 0.95 {
		t.Errorf("GBDT accuracy %v, want >= 0.95", acc)
	}
}

func TestGBDTProbabilitiesInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := axisData(rng, 200, 0.1)
	g := FitGBDT(x, y, nil, GBDTConfig{Stages: 30})
	for i := range x {
		p := g.Predict(x[i])
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("probability out of range: %v", p)
		}
	}
}

func TestGBDTClassWeights(t *testing.T) {
	// All-negative data with huge positive weight on a single positive
	// sample: the model must take the weight seriously.
	x := [][]float64{{0}, {0}, {0}, {1}}
	y := []float64{0, 0, 0, 1}
	w := []float64{1, 1, 1, 50}
	g := FitGBDT(x, y, w, GBDTConfig{Stages: 25, LearningRate: 0.5, Tree: Config{MaxDepth: 1}})
	if p := g.Predict([]float64{1}); p < 0.9 {
		t.Errorf("weighted positive got probability %v, want > 0.9", p)
	}
}

func TestGBDTEmpty(t *testing.T) {
	g := FitGBDT(nil, nil, nil, GBDTConfig{})
	if p := g.Predict([]float64{1}); p != 0.5 {
		t.Errorf("empty GBDT predicts %v, want 0.5", p)
	}
}

func TestTreeDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := axisData(rng, 200, 0.1)
	a := Fit(x, y, nil, Config{MaxDepth: 5})
	b := Fit(x, y, nil, Config{MaxDepth: 5})
	for i := 0; i < 50; i++ {
		probe := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if a.Predict(probe) != b.Predict(probe) {
			t.Fatal("tree training is nondeterministic")
		}
	}
}
