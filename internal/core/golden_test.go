package core

import (
	"context"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// fitGolden is one pinned training outcome: the FNV-1a hash of every
// parameter's float64 bits (in Params order, little-endian), the epoch count
// and the best validation loss's bits.
type fitGolden struct {
	params  uint64
	epochs  int
	valBits uint64
}

// The values below were recorded from the commit before internal/nn's
// kernels and fused nodes existed (PR 22, 57fbd73), on amd64. They pin the
// contract those kernels carry: every floating-point operation and its
// order are unchanged, so a fixed-seed Fit lands on the same weights bit for
// bit. A change that moves them changed the arithmetic, not just its speed.
var fitGoldens = map[string]fitGolden{
	"serial":     {0x6638900e353cad18, 12, 0x3ff078a91a376a38},
	"workers=2":  {0xa9108c3cc0fcf317, 12, 0x3ff04860c1efa313},
	"lstm":       {0x92446926f0b00d80, 2, 0x400127d850c507d2},
	"no-context": {0x8bd744c3b92d2c9b, 2, 0x3ffe3f4d9969b84a},
}

func goldenCfg(workers int) LocMatcherConfig {
	cfg := DefaultLocMatcherConfig()
	cfg.MaxEpochs = 12
	cfg.Patience = 3
	cfg.LR = 1e-3
	cfg.Workers = workers
	return cfg
}

func hashParams(m *LocMatcher) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range m.Params() {
		for _, v := range p.Data {
			u := math.Float64bits(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func TestFitGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64; an architecture that contracts a*b+c rounds differently")
	}
	samples := trainSamples(t)
	// Every fifth labelled sample is validation, so early stopping and the
	// best-checkpoint restore are part of what is pinned.
	var train, val []*Sample
	for i, s := range samples {
		if i%5 == 4 {
			val = append(val, s)
		} else {
			train = append(train, s)
		}
	}
	lstm := goldenCfg(1)
	lstm.UseLSTM = true
	lstm.MaxEpochs = 2
	noCtx := goldenCfg(1)
	noCtx.NoContext = true
	noCtx.MaxEpochs = 2
	for _, tc := range []struct {
		name string
		cfg  LocMatcherConfig
	}{
		{"serial", goldenCfg(1)},
		{"workers=2", goldenCfg(2)},
		{"lstm", lstm},
		{"no-context", noCtx},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewLocMatcher(tc.cfg)
			res, err := m.Fit(context.Background(), train, val)
			if err != nil {
				t.Fatal(err)
			}
			got := fitGolden{hashParams(m), res.Epochs, math.Float64bits(res.BestValLoss)}
			want, ok := fitGoldens[tc.name]
			if !ok {
				t.Fatalf("no golden recorded; got %q: {%#x, %d, %#x},", tc.name, got.params, got.epochs, got.valBits)
			}
			if got != want {
				t.Fatalf("trained model moved: got {%#x, %d, %#x} (val loss %v), want {%#x, %d, %#x}",
					got.params, got.epochs, got.valBits, res.BestValLoss, want.params, want.epochs, want.valBits)
			}
		})
	}
}

// A warm Probabilities call allocates eight objects whatever the candidate
// count: the matcher's pooled tape supplies the graph (see
// nn.TestTrainingStepAllocations for the per-node side), leaving the
// embedding lookup's off-tape row (four), the three per-layer head slices
// and the returned distribution. The bound is the measured count — 358
// before the fused nodes and the arena tape, as the benchmark's
// core.predict_allocs_per_addr reported it.
func TestProbabilitiesAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so the tape is not warm")
	}
	samples := trainSamples(t)
	cfg := goldenCfg(1)
	cfg.MaxEpochs = 1
	m := NewLocMatcher(cfg)
	if _, err := m.Fit(context.Background(), samples, nil); err != nil {
		t.Fatal(err)
	}
	s := samples[0]
	for _, c := range samples {
		if len(c.Cands) > len(s.Cands) {
			s = c
		}
	}
	m.Probabilities(s) // warms the pooled tape
	const want = 8
	if got := testing.AllocsPerRun(50, func() { m.Probabilities(s) }); got > want {
		t.Fatalf("warm Probabilities over %d candidates: %.0f allocs, want <= %d", len(s.Cands), got, want)
	}
}
