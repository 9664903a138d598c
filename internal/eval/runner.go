package eval

import (
	"context"
	"fmt"
	"time"

	"dlinfma/internal/baselines"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
)

// MethodResult is one evaluated row of a results table.
type MethodResult struct {
	Name string
	Metrics
	// Errors are the per-address inference errors behind the metrics,
	// retained so callers can bootstrap confidence intervals.
	Errors    []float64
	FitTime   time.Duration
	InferTime time.Duration // total over all test addresses
}

// AddrPerSecond returns inference throughput.
func (r MethodResult) AddrPerSecond() float64 {
	if r.InferTime <= 0 {
		return 0
	}
	return float64(r.N) / r.InferTime.Seconds()
}

// EvaluateMethod fits a method on the train/val addresses and measures its
// errors on the test addresses. Addresses the method cannot answer fall back
// to the geocoded location, mirroring the deployed system's final fallback.
// Cancelling ctx aborts training and returns the wrapped ctx error.
func EvaluateMethod(ctx context.Context, env *baselines.Env, m baselines.Method, train, val, test []model.AddressID) (MethodResult, error) {
	res := MethodResult{Name: m.Name()}
	t0 := time.Now()
	if err := m.Fit(ctx, env, train, val); err != nil {
		return res, fmt.Errorf("eval: fit %s: %w", m.Name(), err)
	}
	res.FitTime = time.Since(t0)

	var errs []float64
	t1 := time.Now()
	for _, addr := range test {
		truth, ok := env.DS.Truth[addr]
		if !ok {
			continue
		}
		pred, ok := m.Predict(env, addr)
		if !ok {
			if info, ok2 := env.Info(addr); ok2 {
				pred = info.Geocode
			} else {
				continue
			}
		}
		errs = append(errs, geo.Dist(pred, truth))
	}
	res.InferTime = time.Since(t1)
	res.Metrics = Compute(errs)
	res.Errors = errs
	return res, nil
}

// EvaluateAll runs several methods over the same split, returning one row
// each. Methods whose Fit fails are reported with NaN metrics rather than
// aborting the table — except cancellation, which stops the sweep early and
// returns the rows finished so far.
func EvaluateAll(ctx context.Context, env *baselines.Env, methods []baselines.Method, train, val, test []model.AddressID) []MethodResult {
	out := make([]MethodResult, 0, len(methods))
	for _, m := range methods {
		if ctx.Err() != nil {
			return out
		}
		r, err := EvaluateMethod(ctx, env, m, train, val, test)
		if err != nil {
			r = MethodResult{Name: m.Name()}
			r.Metrics = Compute(nil)
		}
		out = append(out, r)
	}
	return out
}
