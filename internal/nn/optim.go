package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba; paper ref [27]) with the
// paper's settings beta1 = 0.9, beta2 = 0.999.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	// ClipNorm, when positive, rescales the global gradient norm to at most
	// this value before the update.
	ClipNorm float64

	t int
	m map[*Tensor][]float64
	v map[*Tensor][]float64
}

// NewAdam returns an Adam optimizer with the paper's hyper-parameters and
// the given learning rate (the paper uses 1e-4 for LocMatcher).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Tensor][]float64),
		v: make(map[*Tensor][]float64),
	}
}

// Step applies one update to params using their accumulated gradients,
// divided by scale (the mini-batch size), then leaves the gradients
// untouched; callers usually ZeroGrad afterwards.
func (a *Adam) Step(params []*Tensor, scale float64) {
	if scale <= 0 {
		scale = 1
	}
	if a.ClipNorm > 0 {
		var norm float64
		for _, p := range params {
			for _, g := range p.Grad {
				g /= scale
				norm += g * g
			}
		}
		norm = math.Sqrt(norm)
		if norm > a.ClipNorm {
			scale *= norm / a.ClipNorm
		}
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(p.Data))
			a.m[p] = m
			a.v[p] = make([]float64, len(p.Data))
		}
		v := a.v[p]
		for i := range p.Data {
			g := p.Grad[i] / scale
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			p.Data[i] -= a.LR * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + a.Eps)
		}
	}
}

// StepLR halves (or scales by Gamma) the learning rate every StepEpochs
// epochs — the paper reduces LocMatcher's rate by half every 5 epochs.
type StepLR struct {
	Base       float64
	StepEpochs int
	Gamma      float64
}

// NewStepLR returns the paper's schedule: halve every stepEpochs.
func NewStepLR(base float64, stepEpochs int) *StepLR {
	return &StepLR{Base: base, StepEpochs: stepEpochs, Gamma: 0.5}
}

// At returns the learning rate for a zero-based epoch index.
func (s *StepLR) At(epoch int) float64 {
	if s.StepEpochs <= 0 {
		return s.Base
	}
	return s.Base * math.Pow(s.Gamma, float64(epoch/s.StepEpochs))
}

// EarlyStopper stops training once the validation loss has not improved for
// Patience consecutive epochs (the paper stops when validation loss no
// longer decreases).
type EarlyStopper struct {
	Patience int
	MinDelta float64

	best    float64
	bad     int
	started bool
}

// NewEarlyStopper returns a stopper with the given patience.
func NewEarlyStopper(patience int) *EarlyStopper {
	return &EarlyStopper{Patience: patience}
}

// Observe records a validation loss. It returns true when training should
// stop and whether this loss is the best seen so far.
func (e *EarlyStopper) Observe(loss float64) (stop, improved bool) {
	if !e.started || loss < e.best-e.MinDelta {
		e.best = loss
		e.started = true
		e.bad = 0
		return false, true
	}
	e.bad++
	return e.bad >= e.Patience, false
}

// ZeroGrads clears the gradients of all params.
func ZeroGrads(params []*Tensor) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// CopyParams copies the data of src params into dst (checkpointing for
// early-stopping restore). The two slices must be position-aligned.
func CopyParams(dst, src []*Tensor) {
	for i, s := range src {
		copy(dst[i].Data, s.Data)
	}
}

// CloneParams returns detached copies of params (no gradients).
func CloneParams(params []*Tensor) []*Tensor {
	out := make([]*Tensor, len(params))
	for i, p := range params {
		data := append([]float64(nil), p.Data...)
		out[i] = NewTensor(data, p.Shape...)
	}
	return out
}
