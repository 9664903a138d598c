// Package baselines implements every comparison method of the paper's
// Table II/III: the Geocoding, Annotation, GeoCloud, GeoRank, UNet-based,
// MinDist, MaxTC and MaxTC-ILC baselines, plus the DLInfMA variants
// (classification with GBDT/RF/MLP, pairwise ranking with decision trees and
// RankNet, the LSTM pointer-network encoder, grid-merged candidates) and the
// feature ablations. All methods share one Env so expensive artefacts —
// the candidate pool, featurized samples, annotated locations — are computed
// once per dataset.
package baselines

import (
	"context"

	"dlinfma/internal/core"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
)

// Method is one delivery-location inference method under evaluation.
type Method interface {
	Name() string
	// Fit trains on the labelled train/val addresses. Heuristic methods
	// ignore the supervision and return nil. Cancelling ctx aborts training
	// and returns ctx.Err().
	Fit(ctx context.Context, env *Env, train, val []model.AddressID) error
	// Predict returns the inferred delivery location of an address. ok is
	// false when the method has no basis for a prediction (the evaluation
	// then falls back to the geocode, as the deployed system does).
	Predict(env *Env, addr model.AddressID) (geo.Point, bool)
}

// Env bundles a dataset with lazily computed shared artefacts.
type Env struct {
	DS   *model.Dataset
	Pipe *core.Pipeline

	// gridPipe is the DLInfMA-Grid variant's pipeline (grid-merged pool).
	gridPipe *core.Pipeline

	samples map[sampleKey]map[model.AddressID]*core.Sample
	annots  map[model.AddressID][]annotation
	addrs   map[model.AddressID]model.AddressInfo
}

type sampleKey struct {
	opt  core.SampleOptions
	grid bool
}

// annotation is one annotated delivery location: the courier's position at
// the recorded confirmation time — what the annotation-based related work
// ([5], [6], [19], [20]) consumes. With delayed confirmations these points
// drift arbitrarily far from the actual delivery location.
type annotation struct {
	Loc geo.Point
	T   float64
}

// NewEnv builds the environment, constructing the main DLInfMA pipeline.
// Cancelling ctx aborts the pool build.
func NewEnv(ctx context.Context, ds *model.Dataset, cfg core.Config) (*Env, error) {
	pipe, err := core.NewPipeline(ctx, ds, cfg)
	if err != nil {
		return nil, err
	}
	return NewEnvWithPipeline(ds, pipe), nil
}

// NewEnvWithPipeline wires a prebuilt pipeline.
func NewEnvWithPipeline(ds *model.Dataset, pipe *core.Pipeline) *Env {
	e := &Env{
		DS:      ds,
		Pipe:    pipe,
		samples: make(map[sampleKey]map[model.AddressID]*core.Sample),
		addrs:   make(map[model.AddressID]model.AddressInfo, len(ds.Addresses)),
	}
	for _, a := range ds.Addresses {
		e.addrs[a.ID] = a
	}
	return e
}

// Info returns the address metadata.
func (e *Env) Info(addr model.AddressID) (model.AddressInfo, bool) {
	a, ok := e.addrs[addr]
	return a, ok
}

// GridPipe returns (building on demand) the DLInfMA-Grid pipeline.
// Cancelling ctx aborts a pending build; a cached pipeline returns
// immediately.
func (e *Env) GridPipe(ctx context.Context) (*core.Pipeline, error) {
	if e.gridPipe == nil {
		cfg := e.Pipe.Cfg
		cfg.UseGridMerge = true
		pipe, err := core.NewPipeline(ctx, e.DS, cfg)
		if err != nil {
			return nil, err
		}
		e.gridPipe = pipe
	}
	return e.gridPipe, nil
}

// Samples returns the featurized, labelled samples for the given options,
// keyed by address. Results are cached. It is SamplesCtx with a background
// context (which cannot be cancelled, so no error can occur).
func (e *Env) Samples(opt core.SampleOptions, grid bool) map[model.AddressID]*core.Sample {
	m, _ := e.SamplesCtx(context.Background(), opt, grid)
	return m
}

// SamplesCtx is Samples with cooperative cancellation through sample
// featurization and the on-demand grid pool build.
func (e *Env) SamplesCtx(ctx context.Context, opt core.SampleOptions, grid bool) (map[model.AddressID]*core.Sample, error) {
	key := sampleKey{opt: opt, grid: grid}
	if m, ok := e.samples[key]; ok {
		return m, nil
	}
	pipe := e.Pipe
	if grid {
		var err error
		if pipe, err = e.GridPipe(ctx); err != nil {
			return nil, err
		}
	}
	ids := make([]model.AddressID, len(e.DS.Addresses))
	for i, a := range e.DS.Addresses {
		ids[i] = a.ID
	}
	samples, err := pipe.BuildSamplesCtx(ctx, ids, opt)
	if err != nil {
		return nil, err
	}
	m := make(map[model.AddressID]*core.Sample)
	for _, s := range samples {
		m[s.Addr] = s
	}
	core.LabelSamplesMap(m, e.DS.Truth)
	e.samples[key] = m
	return m, nil
}

// Annotations returns, per address, the courier positions at the recorded
// confirmation times across all historical deliveries.
func (e *Env) Annotations() map[model.AddressID][]annotation {
	if e.annots != nil {
		return e.annots
	}
	e.annots = make(map[model.AddressID][]annotation)
	for _, tr := range e.DS.Trips {
		for _, w := range tr.Waybills {
			e.annots[w.Addr] = append(e.annots[w.Addr], annotation{
				Loc: tr.Traj.At(w.RecordedDeliveryT),
				T:   w.RecordedDeliveryT,
			})
		}
	}
	return e.annots
}

// annotationPoints returns just the points of an address's annotations.
func (e *Env) annotationPoints(addr model.AddressID) []geo.Point {
	anns := e.Annotations()[addr]
	pts := make([]geo.Point, len(anns))
	for i, a := range anns {
		pts[i] = a.Loc
	}
	return pts
}

// pickSamples splits a sample map by address list, keeping only labelled
// samples (for training).
func pickSamples(m map[model.AddressID]*core.Sample, ids []model.AddressID) []*core.Sample {
	var out []*core.Sample
	for _, id := range ids {
		if s, ok := m[id]; ok && s.Label >= 0 {
			out = append(out, s)
		}
	}
	return out
}
