package tree

import (
	"math"
	"math/rand"
)

// ForestConfig configures a random forest (paper ref [24]; the DLInfMA-RF
// variant uses 400 trees of depth at most 10).
type ForestConfig struct {
	NTrees int
	Tree   Config
	Seed   int64
}

// Forest is a bagged ensemble of regression trees. On 0/1 targets its
// prediction is the positive-class probability.
type Forest struct {
	Trees []*Tree
}

// FitForest trains a random forest with bootstrap sampling and sqrt-feature
// subsetting (unless the tree config specifies its own subset size).
func FitForest(x [][]float64, y []float64, w []float64, cfg ForestConfig) *Forest {
	if cfg.NTrees <= 0 {
		cfg.NTrees = 100
	}
	n := len(x)
	f := &Forest{}
	if n == 0 {
		return f
	}
	if cfg.Tree.FeatureSubset == 0 {
		cfg.Tree.FeatureSubset = int(math.Sqrt(float64(len(x[0])))) + 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for t := 0; t < cfg.NTrees; t++ {
		bx := make([][]float64, n)
		by := make([]float64, n)
		var bw []float64
		if w != nil {
			bw = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bx[i] = x[j]
			by[i] = y[j]
			if w != nil {
				bw[i] = w[j]
			}
		}
		tc := cfg.Tree
		tc.Rand = rand.New(rand.NewSource(rng.Int63()))
		f.Trees = append(f.Trees, Fit(bx, by, bw, tc))
	}
	return f
}

// Predict returns the ensemble average for a feature vector.
func (f *Forest) Predict(x []float64) float64 {
	if len(f.Trees) == 0 {
		return 0
	}
	var s float64
	for _, t := range f.Trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.Trees))
}
