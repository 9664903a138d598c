package baselines

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"dlinfma/internal/core"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/nn"
	"dlinfma/internal/tree"
)

// DLInfMA wraps the full method (pipeline + LocMatcher) as a Method. Options
// express the ablations and the Grid/PN variants of Table II.
type DLInfMA struct {
	Label string // display name; "DLInfMA" when empty
	Opt   core.SampleOptions
	Model core.LocMatcherConfig
	// Grid uses the grid-merged candidate pool (DLInfMA-Grid).
	Grid bool

	matcher *core.LocMatcher
}

// NewDLInfMA returns the canonical configuration.
func NewDLInfMA() *DLInfMA {
	return &DLInfMA{Opt: core.DefaultSampleOptions(), Model: core.DefaultLocMatcherConfig()}
}

// Name implements Method.
func (d *DLInfMA) Name() string {
	if d.Label != "" {
		return d.Label
	}
	return "DLInfMA"
}

// Fit implements Method. When the model config leaves Workers unset, the
// pipeline's Workers knob is inherited so one -workers flag parallelizes
// both stages.
func (d *DLInfMA) Fit(ctx context.Context, env *Env, train, val []model.AddressID) error {
	samples, err := env.SamplesCtx(ctx, d.Opt, d.Grid)
	if err != nil {
		return err
	}
	cfg := d.Model
	if cfg.Workers == 0 {
		cfg.Workers = env.Pipe.Cfg.Workers
	}
	d.matcher = core.NewLocMatcher(cfg)
	_, err = d.matcher.Fit(ctx, pickSamples(samples, train), pickSamples(samples, val))
	return err
}

// Predict implements Method.
func (d *DLInfMA) Predict(env *Env, addr model.AddressID) (geo.Point, bool) {
	s := env.Samples(d.Opt, d.Grid)[addr]
	if s == nil || len(s.Cands) == 0 || d.matcher == nil {
		return geo.Point{}, false
	}
	return s.PredictedLocation(d.matcher.Predict(s)), true
}

// ClassifierKind selects the base learner of the classification variants.
type ClassifierKind int

// The three classification variants of Table II.
const (
	KindGBDT ClassifierKind = iota
	KindRF
	KindMLP
)

// Classifier scores each candidate independently with a binary classifier
// over the flattened features and selects the highest-probability candidate
// (Figure 7(a)). Hyper-parameters follow Section V-B: GBDT with 150 stages,
// RF with 400 trees of depth <= 10, MLP with one 16-neuron hidden layer; all
// with 8:2 class weighting.
type Classifier struct {
	Kind ClassifierKind
	Seed int64

	gbdt   *tree.GBDT
	forest *tree.Forest
	mlp    *nn.MLP
}

// Name implements Method.
func (c *Classifier) Name() string {
	switch c.Kind {
	case KindGBDT:
		return "DLInfMA-GBDT"
	case KindRF:
		return "DLInfMA-RF"
	default:
		return "DLInfMA-MLP"
	}
}

// classWeight implements the paper's 8:2 weighting for imbalanced labels.
func classWeight(y float64) float64 {
	if y == 1 {
		return 0.8
	}
	return 0.2
}

// Fit implements Method. ctx is checked via the shared sample build; the
// tree/MLP fits themselves are short and run to completion.
func (c *Classifier) Fit(ctx context.Context, env *Env, train, _ []model.AddressID) error {
	all, err := env.SamplesCtx(ctx, core.DefaultSampleOptions(), false)
	if err != nil {
		return err
	}
	samples := pickSamples(all, train)
	var x [][]float64
	var y, w []float64
	for _, s := range samples {
		for i := range s.Cands {
			label := 0.0
			if i == s.Label {
				label = 1
			}
			x = append(x, s.FlatFeatures(i))
			y = append(y, label)
			w = append(w, classWeight(label))
		}
	}
	if len(x) == 0 {
		return errors.New("baselines: classifier has no training rows")
	}
	switch c.Kind {
	case KindGBDT:
		c.gbdt = tree.FitGBDT(x, y, w, tree.GBDTConfig{Stages: 150, LearningRate: 0.1, Tree: tree.Config{MaxDepth: 3}})
	case KindRF:
		c.forest = tree.FitForest(x, y, w, tree.ForestConfig{NTrees: 400, Tree: tree.Config{MaxDepth: 10}, Seed: c.Seed + 1})
	default:
		rng := rand.New(rand.NewSource(c.Seed + 2))
		c.mlp = nn.NewMLP(rng, core.FlatDim, 16, 1)
		params := c.mlp.Params()
		opt := nn.NewAdam(1e-3)
		idx := rng.Perm(len(x))
		for epoch := 0; epoch < 8; epoch++ {
			nn.ZeroGrads(params)
			inBatch := 0
			for _, i := range idx {
				loss := nn.WeightedBCEWithLogits(c.mlp.Forward(nn.NewTensor(x[i], 1, len(x[i]))), y[i], w[i])
				nn.Backward(loss)
				if inBatch++; inBatch == 32 {
					opt.Step(params, 32)
					nn.ZeroGrads(params)
					inBatch = 0
				}
			}
			if inBatch > 0 {
				opt.Step(params, float64(inBatch))
			}
			rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		}
	}
	return nil
}

func (c *Classifier) score(f []float64) float64 {
	switch c.Kind {
	case KindGBDT:
		return c.gbdt.Predict(f)
	case KindRF:
		return c.forest.Predict(f)
	default:
		return c.mlp.Forward(nn.NewTensor(f, 1, len(f))).Value()
	}
}

// Predict implements Method.
func (c *Classifier) Predict(env *Env, addr model.AddressID) (geo.Point, bool) {
	s := env.Samples(core.DefaultSampleOptions(), false)[addr]
	if s == nil || len(s.Cands) == 0 {
		return geo.Point{}, false
	}
	if (c.Kind == KindGBDT && c.gbdt == nil) || (c.Kind == KindRF && c.forest == nil) || (c.Kind == KindMLP && c.mlp == nil) {
		return geo.Point{}, false
	}
	best, bestScore := 0, c.score(s.FlatFeatures(0))
	for i := 1; i < len(s.Cands); i++ {
		if sc := c.score(s.FlatFeatures(i)); sc > bestScore {
			best, bestScore = i, sc
		}
	}
	return s.Cands[best].Loc, true
}

// RankKind selects the pairwise ranking variant's learner.
type RankKind int

// The two pairwise ranking variants of Table II.
const (
	RankDT RankKind = iota
	RankNet
)

// PairwiseRanker applies the pairwise ranking strategy of Figure 7(b) over
// DLInfMA's candidates: DLInfMA-RkDT uses a decision tree on feature
// differences; DLInfMA-RkNet trains RankNet (a shared scoring tower with a
// logistic pairwise loss, one 16-neuron hidden layer).
type PairwiseRanker struct {
	Kind RankKind
	Seed int64

	dt    *tree.Tree
	tower *nn.MLP
}

// Name implements Method.
func (r *PairwiseRanker) Name() string {
	if r.Kind == RankDT {
		return "DLInfMA-RkDT"
	}
	return "DLInfMA-RkNet"
}

// Fit implements Method.
func (r *PairwiseRanker) Fit(ctx context.Context, env *Env, train, _ []model.AddressID) error {
	all, err := env.SamplesCtx(ctx, core.DefaultSampleOptions(), false)
	if err != nil {
		return err
	}
	samples := pickSamples(all, train)
	type pair struct {
		pos, neg []float64
	}
	var pairs []pair
	for _, s := range samples {
		if len(s.Cands) < 2 {
			continue
		}
		pf := s.FlatFeatures(s.Label)
		for i := range s.Cands {
			if i != s.Label {
				pairs = append(pairs, pair{pos: pf, neg: s.FlatFeatures(i)})
			}
		}
	}
	if len(pairs) == 0 {
		return errors.New("baselines: ranker has no training pairs")
	}
	if r.Kind == RankDT {
		var x [][]float64
		var y []float64
		for _, p := range pairs {
			x = append(x, diffFeats(p.pos, p.neg))
			y = append(y, 1)
			x = append(x, diffFeats(p.neg, p.pos))
			y = append(y, 0)
		}
		r.dt = tree.Fit(x, y, nil, tree.Config{MaxLeafNodes: 1024})
		return nil
	}
	rng := rand.New(rand.NewSource(r.Seed + 3))
	r.tower = nn.NewMLP(rng, core.FlatDim, 16, 1)
	params := r.tower.Params()
	opt := nn.NewAdam(1e-3)
	idx := rng.Perm(len(pairs))
	for epoch := 0; epoch < 10; epoch++ {
		nn.ZeroGrads(params)
		inBatch := 0
		for _, i := range idx {
			p := pairs[i]
			sp := r.tower.Forward(nn.NewTensor(p.pos, 1, len(p.pos)))
			sn := r.tower.Forward(nn.NewTensor(p.neg, 1, len(p.neg)))
			loss := nn.BCEWithLogits(nn.Sub(sp, sn), 1)
			nn.Backward(loss)
			if inBatch++; inBatch == 32 {
				opt.Step(params, 32)
				nn.ZeroGrads(params)
				inBatch = 0
			}
		}
		if inBatch > 0 {
			opt.Step(params, float64(inBatch))
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	return nil
}

// Predict implements Method: voting over all pairwise comparisons.
func (r *PairwiseRanker) Predict(env *Env, addr model.AddressID) (geo.Point, bool) {
	s := env.Samples(core.DefaultSampleOptions(), false)[addr]
	if s == nil || len(s.Cands) == 0 {
		return geo.Point{}, false
	}
	if len(s.Cands) == 1 {
		return s.Cands[0].Loc, true
	}
	feats := make([][]float64, len(s.Cands))
	for i := range s.Cands {
		feats[i] = s.FlatFeatures(i)
	}
	var beats func(a, b int) bool
	switch {
	case r.Kind == RankDT && r.dt != nil:
		beats = func(a, b int) bool { return r.dt.Predict(diffFeats(feats[a], feats[b])) > 0.5 }
	case r.Kind == RankNet && r.tower != nil:
		score := make([]float64, len(feats))
		for i, f := range feats {
			score[i] = r.tower.Forward(nn.NewTensor(f, 1, len(f))).Value()
		}
		beats = func(a, b int) bool { return score[a] > score[b] }
	default:
		return geo.Point{}, false
	}
	wins := make([]int, len(s.Cands))
	for i := range s.Cands {
		for j := i + 1; j < len(s.Cands); j++ {
			if beats(i, j) {
				wins[i]++
			} else {
				wins[j]++
			}
		}
	}
	best := 0
	for i, w := range wins {
		if w > wins[best] {
			best = i
		}
	}
	return s.Cands[best].Loc, true
}

// Ablation builds the DLInfMA feature-ablation variants of Table II.
func Ablation(name string) (*DLInfMA, error) {
	d := NewDLInfMA()
	d.Label = name
	switch name {
	case "DLInfMA-nTC":
		d.Opt.Mask.TC = false
	case "DLInfMA-nD":
		d.Opt.Mask.Dist = false
	case "DLInfMA-nP":
		d.Opt.Mask.Profile = false
	case "DLInfMA-nLC":
		d.Opt.Mask.LC = false
	case "DLInfMA-nA":
		d.Model.NoContext = true
	case "DLInfMA-LCaddr":
		d.Opt.LCPerAddress = true
	default:
		return nil, fmt.Errorf("baselines: unknown ablation %q", name)
	}
	return d, nil
}

// Variant builds the model variants of Table II by name.
func Variant(name string) (Method, error) {
	switch name {
	case "DLInfMA-GBDT":
		return &Classifier{Kind: KindGBDT}, nil
	case "DLInfMA-RF":
		return &Classifier{Kind: KindRF}, nil
	case "DLInfMA-MLP":
		return &Classifier{Kind: KindMLP}, nil
	case "DLInfMA-RkDT":
		return &PairwiseRanker{Kind: RankDT}, nil
	case "DLInfMA-RkNet":
		return &PairwiseRanker{Kind: RankNet}, nil
	case "DLInfMA-PN":
		d := NewDLInfMA()
		d.Label = name
		d.Model.UseLSTM = true
		d.Model.LSTMHidden = 32
		return d, nil
	case "DLInfMA-Grid":
		d := NewDLInfMA()
		d.Label = name
		d.Grid = true
		return d, nil
	default:
		return Ablation(name)
	}
}

// AllVariantNames lists the variant and ablation rows of Table II.
func AllVariantNames() []string {
	return []string{
		"DLInfMA-GBDT", "DLInfMA-RF", "DLInfMA-MLP",
		"DLInfMA-RkDT", "DLInfMA-RkNet", "DLInfMA-PN", "DLInfMA-Grid",
		"DLInfMA-nTC", "DLInfMA-nD", "DLInfMA-nP", "DLInfMA-nLC", "DLInfMA-nA",
		"DLInfMA-LCaddr",
	}
}
