package core

import (
	"context"
	"math"
	"testing"

	"dlinfma/internal/nn"
)

// trainSamples returns the tiny dataset's labelled samples once.
func trainSamples(t *testing.T) []*Sample {
	t.Helper()
	ds, _, pipe := tiny(t)
	samples := pipe.BuildSamples(addressIDs(ds), DefaultSampleOptions())
	LabelSamples(samples, ds.Truth)
	return labelled(samples)
}

func quickCfg(workers int) LocMatcherConfig {
	cfg := DefaultLocMatcherConfig()
	cfg.MaxEpochs = 3
	cfg.LR = 1e-3
	cfg.Workers = workers
	return cfg
}

func fitParams(t *testing.T, cfg LocMatcherConfig, samples []*Sample) (*LocMatcher, []*nn.Tensor) {
	t.Helper()
	m := NewLocMatcher(cfg)
	if _, err := m.Fit(context.Background(), samples, nil); err != nil {
		t.Fatal(err)
	}
	return m, m.Params()
}

func requireSameParams(t *testing.T, a, b []*nn.Tensor, what string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: param count %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		for j := range a[i].Data {
			if a[i].Data[j] != b[i].Data[j] {
				t.Fatalf("%s: param %d element %d differs: %v vs %v",
					what, i, j, a[i].Data[j], b[i].Data[j])
			}
		}
	}
}

// Workers 0 and 1 both take the serial reference path and must produce
// bit-identical parameters for a fixed seed — the backward-compatibility
// contract of the Workers knob.
func TestFitSerialPathDeterministic(t *testing.T) {
	samples := trainSamples(t)
	_, p0 := fitParams(t, quickCfg(0), samples)
	_, p1 := fitParams(t, quickCfg(1), samples)
	requireSameParams(t, p0, p1, "Workers=0 vs Workers=1")
}

// Parallel training must be reproducible for a fixed worker count.
func TestFitParallelReproducible(t *testing.T) {
	samples := trainSamples(t)
	ma, pa := fitParams(t, quickCfg(4), samples)
	_, pb := fitParams(t, quickCfg(4), samples)
	requireSameParams(t, pa, pb, "two Workers=4 runs")

	preds, err := ma.PredictAll(context.Background(), samples)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		if preds[i] < 0 || preds[i] >= len(s.Cands) {
			t.Fatalf("sample %d: invalid parallel-trained prediction %d", i, preds[i])
		}
	}
}

// Parallel training should reach a loss comparable to serial training — the
// update schedule is identical, only the floating-point summation order and
// dropout streams differ.
func TestFitParallelLearns(t *testing.T) {
	samples := trainSamples(t)
	cfg := quickCfg(4)
	cfg.MaxEpochs = 10
	m := NewLocMatcher(cfg)
	res, err := m.Fit(context.Background(), samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 || math.IsInf(res.BestValLoss, 1) || math.IsNaN(res.BestValLoss) {
		t.Fatalf("parallel training did not run: %+v", res)
	}
	scfg := quickCfg(1)
	scfg.MaxEpochs = 10
	sm := NewLocMatcher(scfg)
	sres, err := sm.Fit(context.Background(), samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValLoss > 2*sres.BestValLoss+0.5 {
		t.Errorf("parallel loss %.4f much worse than serial %.4f", res.BestValLoss, sres.BestValLoss)
	}
}

// The inference fan-outs are deterministic at any worker count: per-sample
// results do not depend on scheduling and the loss reduction is ordered.
func TestInferenceIndependentOfWorkers(t *testing.T) {
	samples := trainSamples(t)
	m, _ := fitParams(t, quickCfg(1), samples)
	ctx := context.Background()

	m.Cfg.Workers = 1
	serialPreds := make([]int, len(samples))
	for i, s := range samples {
		serialPreds[i] = m.Predict(s)
	}
	serialProbs, err := m.ProbabilitiesAll(ctx, samples)
	if err != nil {
		t.Fatal(err)
	}
	serialLoss, err := m.meanLoss(ctx, samples)
	if err != nil {
		t.Fatal(err)
	}

	m.Cfg.Workers = 4
	preds, err := m.PredictAll(ctx, samples)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := m.ProbabilitiesAll(ctx, samples)
	if err != nil {
		t.Fatal(err)
	}
	if loss, err := m.meanLoss(ctx, samples); err != nil {
		t.Fatal(err)
	} else if loss != serialLoss {
		t.Fatalf("meanLoss with 4 workers %v != serial %v", loss, serialLoss)
	}
	for i := range samples {
		if preds[i] != serialPreds[i] {
			t.Fatalf("sample %d: parallel prediction %d != serial %d", i, preds[i], serialPreds[i])
		}
		for j := range serialProbs[i] {
			if probs[i][j] != serialProbs[i][j] {
				t.Fatalf("sample %d prob %d: parallel %v != serial %v", i, j, probs[i][j], serialProbs[i][j])
			}
		}
	}
}

// BuildSamples must return the same samples in the same order at any worker
// count.
func TestBuildSamplesParallelMatchesSerial(t *testing.T) {
	ds, _, pipe := tiny(t)
	ids := addressIDs(ds)

	serial := *pipe
	serial.Cfg.Workers = 1
	want := serial.BuildSamples(ids, DefaultSampleOptions())

	par := *pipe
	par.Cfg.Workers = 4
	got := par.BuildSamples(ids, DefaultSampleOptions())

	if len(got) != len(want) {
		t.Fatalf("parallel BuildSamples returned %d samples, serial %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Addr != want[i].Addr {
			t.Fatalf("sample %d: addr %v != %v (order not preserved)", i, got[i].Addr, want[i].Addr)
		}
		if len(got[i].Cands) != len(want[i].Cands) {
			t.Fatalf("sample %d: %d candidates vs %d", i, len(got[i].Cands), len(want[i].Cands))
		}
		for j := range want[i].Cands {
			if got[i].Cands[j] != want[i].Cands[j] {
				t.Fatalf("sample %d candidate %d differs", i, j)
			}
		}
	}
}

// Cancelling mid-training must abort promptly with context.Canceled on both
// the serial and data-parallel paths, and the inference fan-outs must refuse
// a dead context instead of computing.
func TestFitAndInferenceCancelled(t *testing.T) {
	samples := trainSamples(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		m := NewLocMatcher(quickCfg(workers))
		if _, err := m.Fit(ctx, samples, nil); err != context.Canceled {
			t.Fatalf("Fit workers=%d: got %v, want context.Canceled", workers, err)
		}
		if _, err := m.PredictAll(ctx, samples); err != context.Canceled {
			t.Fatalf("PredictAll workers=%d: got %v, want context.Canceled", workers, err)
		}
		if _, err := m.ProbabilitiesAll(ctx, samples); err != context.Canceled {
			t.Fatalf("ProbabilitiesAll workers=%d: got %v, want context.Canceled", workers, err)
		}
	}
}
