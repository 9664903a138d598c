package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"dlinfma/internal/geocode"
	"dlinfma/internal/nn"
	"dlinfma/internal/obs"
)

// LocMatcherConfig holds the model hyper-parameters; defaults follow
// Section V-B exactly: POI embedded in R^3, r = 3, z = 8, p = 32, a
// 3-layer/2-head transformer encoder with 32 feed-forward neurons, dropout
// 0.1, Adam with lr 1e-4 halved every 5 epochs, batch size 16, early
// stopping on validation loss.
type LocMatcherConfig struct {
	TimeDenseDim  int // r
	Hidden        int // z
	AttnHidden    int // p
	POIEmbDim     int
	EncoderLayers int
	Heads         int
	FF            int
	Dropout       float64
	LR            float64
	Batch         int
	LRStepEpochs  int
	MaxEpochs     int
	Patience      int
	Seed          int64
	// NoContext removes the U·c context term from Equation (3) — the
	// DLInfMA-nA ablation.
	NoContext bool
	// UseLSTM replaces the transformer encoder with an LSTM over the
	// candidate sequence (the DLInfMA-PN variant, following [18]).
	UseLSTM bool
	// LSTMHidden is the LSTM's hidden size (the paper uses 32).
	LSTMHidden int
	// Workers bounds the model's parallelism (the paper's Section V-F
	// trajectory-level parallelization applied to the second stage). For
	// training, values <= 1 mean one worker, the matcher itself, which runs
	// each mini-batch's samples in order — the deterministic serial path;
	// Workers > 1 trains each mini-batch's samples concurrently on
	// per-worker parameter replicas with ordered gradient reduction —
	// reproducible for a fixed worker count, but with a different
	// floating-point summation order than the serial path. For the
	// inference fan-outs (PredictAll, ProbabilitiesAll, meanLoss), whose
	// per-sample results are independent of scheduling, 0 means GOMAXPROCS.
	Workers int
}

// DefaultLocMatcherConfig returns the paper's hyper-parameters.
func DefaultLocMatcherConfig() LocMatcherConfig {
	return LocMatcherConfig{
		TimeDenseDim: 3, Hidden: 8, AttnHidden: 32, POIEmbDim: 3,
		EncoderLayers: 3, Heads: 2, FF: 32, Dropout: 0.1,
		LR: 1e-4, Batch: 16, LRStepEpochs: 5,
		MaxEpochs: 60, Patience: 6, Seed: 1,
	}
}

// nScalarFeats is the number of scalar per-candidate features (TC, LC,
// distance, average duration, #couriers).
const nScalarFeats = 5

// featScaler standardizes scalar inputs with training-set statistics.
type featScaler struct {
	mean [nScalarFeats + 1]float64 // candidate scalars + NDeliveries
	std  [nScalarFeats + 1]float64
}

func fitScaler(samples []*Sample) *featScaler {
	s := &featScaler{}
	var n float64
	for _, sm := range samples {
		for i := range sm.Cands {
			f := candScalars(sm, i)
			for k, v := range f {
				s.mean[k] += v
			}
			s.mean[nScalarFeats] += sm.NDeliveries
			n++
		}
	}
	if n == 0 {
		for k := range s.std {
			s.std[k] = 1
		}
		return s
	}
	for k := range s.mean {
		s.mean[k] /= n
	}
	for _, sm := range samples {
		for i := range sm.Cands {
			f := candScalars(sm, i)
			for k, v := range f {
				d := v - s.mean[k]
				s.std[k] += d * d
			}
			d := sm.NDeliveries - s.mean[nScalarFeats]
			s.std[nScalarFeats] += d * d
		}
	}
	for k := range s.std {
		s.std[k] = math.Sqrt(s.std[k] / n)
		if s.std[k] < 1e-9 {
			s.std[k] = 1
		}
	}
	return s
}

func candScalars(s *Sample, i int) [nScalarFeats]float64 {
	c := s.Cands[i]
	return [nScalarFeats]float64{c.TC, c.LC, c.Dist, c.AvgDur, c.NCouriers}
}

// LocMatcher is the paper's attention-based selection model (Figure 8).
type LocMatcher struct {
	Cfg LocMatcherConfig

	timeDense *nn.Dense
	inDense   *nn.Dense
	enc       *nn.TransformerEncoder
	lstm      *nn.LSTM
	poiEmb    *nn.Embedding
	attn      *nn.AdditiveAttention
	scaler    *featScaler
	rng       *rand.Rand

	// tapes pools inference arenas so concurrent Predict calls each reuse
	// graph storage without sharing it.
	tapes sync.Pool
}

// getTape borrows an arena from the pool; putTape resets and returns it.
func (m *LocMatcher) getTape() *nn.Tape {
	if t, ok := m.tapes.Get().(*nn.Tape); ok {
		return t
	}
	return nn.NewTape()
}

func (m *LocMatcher) putTape(t *nn.Tape) {
	t.Reset()
	m.tapes.Put(t)
}

// inferWorkers resolves the worker count for inference fan-outs.
func (m *LocMatcher) inferWorkers() int {
	if m.Cfg.Workers > 0 {
		return m.Cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// NewLocMatcher builds an untrained LocMatcher.
func NewLocMatcher(cfg LocMatcherConfig) *LocMatcher {
	if cfg.Hidden == 0 {
		cfg = DefaultLocMatcherConfig()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ctxDim := cfg.POIEmbDim + 1
	m := &LocMatcher{
		Cfg:       cfg,
		timeDense: nn.NewDense(rng, 24, cfg.TimeDenseDim),
		inDense:   nn.NewDense(rng, cfg.TimeDenseDim+nScalarFeats, cfg.Hidden),
		poiEmb:    nn.NewEmbedding(rng, geocode.NumPOICategories, cfg.POIEmbDim),
		rng:       rng,
	}
	encOut := cfg.Hidden
	if cfg.UseLSTM {
		if cfg.LSTMHidden <= 0 {
			cfg.LSTMHidden = 32
			m.Cfg.LSTMHidden = 32
		}
		m.lstm = nn.NewLSTM(rng, cfg.Hidden, cfg.LSTMHidden)
		encOut = cfg.LSTMHidden
	} else {
		m.enc = nn.NewTransformerEncoder(rng, cfg.EncoderLayers, cfg.Hidden, cfg.Heads, cfg.FF, cfg.Dropout)
	}
	m.attn = nn.NewAdditiveAttention(rng, encOut, ctxDim, cfg.AttnHidden)
	return m
}

// Params returns all trainable tensors.
func (m *LocMatcher) Params() []*nn.Tensor {
	ps := m.timeDense.Params()
	ps = append(ps, m.inDense.Params()...)
	if m.enc != nil {
		ps = append(ps, m.enc.Params()...)
	}
	if m.lstm != nil {
		ps = append(ps, m.lstm.Params()...)
	}
	ps = append(ps, m.poiEmb.Params()...)
	ps = append(ps, m.attn.Params()...)
	return ps
}

// forward computes candidate scores [n,1] for one sample. The graph's
// intermediates are allocated on tape (recycled by the caller's Reset); rng
// drives dropout and is only consulted when train is true. Concurrent
// forwards are safe as long as each call has its own tape (parameters are
// only read).
func (m *LocMatcher) forward(s *Sample, train bool, tape *nn.Tape, rng *rand.Rand) *nn.Tensor {
	n := len(s.Cands)
	sc := m.scaler
	if sc == nil {
		sc = &featScaler{}
		for k := range sc.std {
			sc.std[k] = 1
		}
	}
	td := tape.NewLeaf(n, 24)
	scalars := tape.NewLeaf(n, nScalarFeats)
	for i := range s.Cands {
		copy(td.Data[i*24:(i+1)*24], s.Cands[i].TimeDist[:])
		f := candScalars(s, i)
		for k, v := range f {
			scalars.Data[i*nScalarFeats+k] = (v - sc.mean[k]) / sc.std[k]
		}
	}

	x := nn.ConcatCols(m.timeDense.Forward(td), scalars) // [n, r+5]
	x = m.inDense.Forward(x)                             // [n, z]
	var z *nn.Tensor
	if m.lstm != nil {
		z = m.lstm.Forward(x) // [n, lstmHidden]
	} else {
		z = m.enc.Forward(x, train, rng) // [n, z]
	}

	var ctx *nn.Tensor
	if !m.Cfg.NoContext {
		poi := int(s.POI)
		if poi < 0 || poi >= geocode.NumPOICategories {
			poi = int(geocode.POIOther)
		}
		emb := m.poiEmb.Forward([]int{poi}) // [1, e]
		nd := tape.NewLeaf(1, 1)
		nd.Data[0] = (s.NDeliveries - sc.mean[nScalarFeats]) / sc.std[nScalarFeats]
		ctx = nn.ConcatCols(emb, nd) // [1, e+1]
	}
	return m.attn.Scores(z, ctx) // [n, 1]
}

// TrainResult reports the outcome of Fit.
type TrainResult struct {
	Epochs      int
	BestValLoss float64
	TrainTime   time.Duration
}

// Fit trains LocMatcher on labelled samples with the paper's procedure:
// cross-entropy over the candidates' softmax, Adam with step-decayed
// learning rate, mini-batches of Batch samples with gradient accumulation,
// early stopping when validation loss stops improving, restoring the best
// checkpoint.
//
// Every batch runs the same four steps — Sync, RunCtx, Reduce, one
// optimizer step — over Fit's workers. With Cfg.Workers <= 1 the one worker
// is the matcher itself: Sync and Reduce have no replicas to touch and the
// batch's samples run inline in order, bit-identical for a fixed seed. With
// Workers > 1 every worker runs forward/backward on its own parameter
// replica (with its own tape and dropout RNG, seeded from Cfg.Seed and the
// worker index), and gradients are reduced into the shared parameters in
// worker order — the same update schedule, reproducible for a fixed worker
// count, with a different floating-point summation order.
//
// Cancellation is cooperative: ctx is checked before each sample and
// between epochs; on cancellation Fit returns ctx.Err() promptly without
// stepping the optimizer on a partial batch, leaving the parameters at the
// last completed update.
func (m *LocMatcher) Fit(ctx context.Context, train, val []*Sample) (TrainResult, error) {
	defer obs.StartSpanCtx(ctx, "fit", stageFit).End()
	train = labelled(train)
	val = labelled(val)
	if len(train) == 0 {
		return TrainResult{}, errors.New("core: no labelled training samples")
	}
	start := time.Now()
	m.scaler = fitScaler(train)
	params := m.Params()
	opt := nn.NewAdam(m.Cfg.LR)
	opt.ClipNorm = 5
	sched := nn.NewStepLR(m.Cfg.LR, m.Cfg.LRStepEpochs)
	stopper := nn.NewEarlyStopper(max(1, m.Cfg.Patience))
	best := nn.CloneParams(params)

	// The workers: the matcher itself, or worker-local model replicas
	// sharing the scaler, each with a distinct dropout stream. Each has its
	// own arena.
	workers := []*LocMatcher{m}
	var repParams [][]*nn.Tensor
	if w := m.Cfg.Workers; w > 1 {
		workers = make([]*LocMatcher, w)
		repParams = make([][]*nn.Tensor, w)
		for k := range workers {
			rcfg := m.Cfg
			rcfg.Seed = m.Cfg.Seed + int64(k+1)
			r := NewLocMatcher(rcfg)
			r.scaler = m.scaler
			workers[k] = r
			repParams[k] = r.Params()
		}
	}
	dp := nn.NewDataParallel(params, repParams...)
	tapes := make([]*nn.Tape, len(workers))
	for k := range tapes {
		tapes[k] = nn.NewTape()
	}

	batchSize := m.Cfg.Batch
	if batchSize <= 0 {
		batchSize = len(train)
	}
	idx := make([]int, len(train))
	for i := range idx {
		idx[i] = i
	}
	// step trains one sample of the current batch: one closure for the
	// whole run rather than an allocation per batch.
	var batch []int
	step := func(w, j int) {
		r := workers[w]
		s := train[batch[j]]
		nn.Backward(nn.CrossEntropy(r.forward(s, true, tapes[w], r.rng), s.Label))
		tapes[w].Reset()
	}
	res := TrainResult{BestValLoss: math.Inf(1)}
	nn.ZeroGrads(params)
	for epoch := 0; epoch < m.Cfg.MaxEpochs; epoch++ {
		opt.LR = sched.At(epoch)
		m.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for lo := 0; lo < len(idx); lo += batchSize {
			batch = idx[lo:min(lo+batchSize, len(idx))]
			dp.Sync()
			if err := dp.RunCtx(ctx, len(batch), step); err != nil {
				return res, err
			}
			dp.Reduce()
			opt.Step(params, float64(len(batch)))
			nn.ZeroGrads(params)
		}
		res.Epochs = epoch + 1

		vl, err := m.meanLoss(ctx, val)
		if err != nil {
			return res, err
		}
		if len(val) == 0 {
			if vl, err = m.meanLoss(ctx, train); err != nil {
				return res, err
			}
		}
		stop, improved := stopper.Observe(vl)
		if improved {
			nn.CopyParams(best, params)
			res.BestValLoss = vl
		}
		if stop {
			break
		}
	}
	nn.CopyParams(params, best)
	res.TrainTime = time.Since(start)
	return res, nil
}

func labelled(samples []*Sample) []*Sample {
	var out []*Sample
	for _, s := range samples {
		if s != nil && s.Label >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// meanLoss computes the mean cross-entropy over samples, fanning the
// per-sample forwards across inferWorkers() goroutines. The per-sample
// losses land in an index-ordered slice that is summed serially, so the
// result is bit-identical at any worker count.
func (m *LocMatcher) meanLoss(ctx context.Context, samples []*Sample) (float64, error) {
	if len(samples) == 0 {
		return math.Inf(1), nil
	}
	losses := make([]float64, len(samples))
	err := nn.ParallelForCtx(ctx, m.inferWorkers(), len(samples), func(i int) {
		s := samples[i]
		tape := m.getTape()
		losses[i] = nn.CrossEntropy(m.forward(s, false, tape, nil), s.Label).Value()
		m.putTape(tape)
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, l := range losses {
		sum += l
	}
	return sum / float64(len(samples)), nil
}

// Predict returns the index of the candidate with maximum predicted
// probability (the inference rule of Section IV-B), -1 for a sample with no
// candidates.
func (m *LocMatcher) Predict(s *Sample) int {
	idx, _ := Pick(m.Probabilities(s))
	return idx
}

// Pick is the inference rule of Section IV-B over one candidate
// distribution: the index of the highest probability and that probability.
// The comparison is strict, so ties go to the lower index; an empty
// distribution gives -1, 0.
func Pick(probs []float64) (int, float64) {
	if len(probs) == 0 {
		return -1, 0
	}
	best := 0
	for i, p := range probs {
		if p > probs[best] {
			best = i
		}
	}
	return best, probs[best]
}

// PredictAll runs Predict over a batch of samples on inferWorkers()
// goroutines and returns the predictions in sample order. Cancelling ctx
// stops the fan-out between samples and returns ctx.Err().
func (m *LocMatcher) PredictAll(ctx context.Context, samples []*Sample) ([]int, error) {
	defer obs.StartSpanCtx(ctx, "predict", stagePredict).End()
	out := make([]int, len(samples))
	err := nn.ParallelForCtx(ctx, m.inferWorkers(), len(samples), func(i int) {
		out[i] = m.Predict(samples[i])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Probabilities returns the softmax distribution over candidates: nil for
// none, and {1} for one without a forward pass — exactly the softmax of one
// finite logit.
func (m *LocMatcher) Probabilities(s *Sample) []float64 {
	switch len(s.Cands) {
	case 0:
		return nil
	case 1:
		return []float64{1}
	}
	tape := m.getTape()
	probs := nn.Softmax1D(m.forward(s, false, tape, nil))
	m.putTape(tape)
	return probs
}

// ProbabilitiesAll runs Probabilities over a batch of samples on
// inferWorkers() goroutines and returns the distributions in sample order.
// Cancelling ctx stops the fan-out between samples and returns ctx.Err().
func (m *LocMatcher) ProbabilitiesAll(ctx context.Context, samples []*Sample) ([][]float64, error) {
	defer obs.StartSpanCtx(ctx, "predict", stagePredict).End()
	out := make([][]float64, len(samples))
	err := nn.ParallelForCtx(ctx, m.inferWorkers(), len(samples), func(i int) {
		out[i] = m.Probabilities(samples[i])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CandidateScore pairs a candidate with its predicted probability and the
// matching features that drive it — the explanation surface used by case
// studies and operator tooling.
type CandidateScore struct {
	Index int
	LocID int
	Prob  float64
	TC    float64
	LC    float64
	Dist  float64
}

// Explain returns the sample's candidates ranked by predicted probability.
func (m *LocMatcher) Explain(s *Sample) []CandidateScore {
	if len(s.Cands) == 0 {
		return nil
	}
	probs := m.Probabilities(s)
	out := make([]CandidateScore, len(s.Cands))
	for i, c := range s.Cands {
		out[i] = CandidateScore{Index: i, LocID: c.LocID, Prob: probs[i], TC: c.TC, LC: c.LC, Dist: c.Dist}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Prob > out[b].Prob })
	return out
}
