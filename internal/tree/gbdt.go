package tree

import "math"

// GBDTConfig configures gradient boosting with logistic loss (paper
// ref [23]; the DLInfMA-GBDT variant uses 150 boosting stages).
type GBDTConfig struct {
	Stages       int
	LearningRate float64
	Tree         Config
}

// GBDT is a gradient-boosted binary classifier.
type GBDT struct {
	bias  float64
	trees []*Tree
	lr    float64
}

// FitGBDT trains gradient-boosted trees on 0/1 labels with optional
// per-sample weights. Each stage fits a regression tree to the negative
// gradient of the logistic loss and applies a Newton leaf correction.
func FitGBDT(x [][]float64, y []float64, w []float64, cfg GBDTConfig) *GBDT {
	if cfg.Stages <= 0 {
		cfg.Stages = 100
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.1
	}
	if cfg.Tree.MaxDepth == 0 {
		cfg.Tree.MaxDepth = 3
	}
	n := len(x)
	g := &GBDT{lr: cfg.LearningRate}
	if n == 0 {
		return g
	}
	if w == nil {
		w = make([]float64, n)
		for i := range w {
			w[i] = 1
		}
	}
	// Initialize with the weighted log-odds.
	var pw, tw float64
	for i := range y {
		pw += y[i] * w[i]
		tw += w[i]
	}
	p := math.Min(math.Max(pw/tw, 1e-6), 1-1e-6)
	g.bias = math.Log(p / (1 - p))

	fx := make([]float64, n)
	for i := range fx {
		fx[i] = g.bias
	}
	resid := make([]float64, n)
	for stage := 0; stage < cfg.Stages; stage++ {
		for i := 0; i < n; i++ {
			resid[i] = y[i] - sigmoid(fx[i])
		}
		t := Fit(x, resid, w, cfg.Tree)
		// Newton correction per leaf: value <- sum(w*r) / sum(w*p*(1-p)).
		leafNum := make(map[int]float64)
		leafDen := make(map[int]float64)
		for i := 0; i < n; i++ {
			leaf := t.leafIndex(x[i])
			pi := sigmoid(fx[i])
			leafNum[leaf] += w[i] * resid[i]
			leafDen[leaf] += w[i] * pi * (1 - pi)
		}
		for leaf, num := range leafNum {
			den := leafDen[leaf]
			if den < 1e-12 {
				den = 1e-12
			}
			t.nodes[leaf].value = num / den
		}
		g.trees = append(g.trees, t)
		for i := 0; i < n; i++ {
			fx[i] += cfg.LearningRate * t.Predict(x[i])
		}
	}
	return g
}

// leafIndex returns the node index of the leaf x falls into.
func (t *Tree) leafIndex(x []float64) int {
	i := 0
	for !t.nodes[i].leaf {
		n := t.nodes[i]
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
	return i
}

// Decision returns the raw additive score (log-odds) for x.
func (g *GBDT) Decision(x []float64) float64 {
	s := g.bias
	for _, t := range g.trees {
		s += g.lr * t.Predict(x)
	}
	return s
}

// Predict returns the positive-class probability for x.
func (g *GBDT) Predict(x []float64) float64 { return sigmoid(g.Decision(x)) }

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
