package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/nn"
	"dlinfma/internal/synth"
)

// tinyData memoizes a generated tiny dataset across tests.
var tinyData struct {
	ds   *model.Dataset
	w    *synth.World
	pipe *Pipeline
}

func tiny(t *testing.T) (*model.Dataset, *synth.World, *Pipeline) {
	t.Helper()
	if tinyData.ds == nil {
		ds, w, err := synth.Generate(synth.Tiny())
		if err != nil {
			t.Fatal(err)
		}
		tinyData.ds, tinyData.w = ds, w
		pipe, err := NewPipeline(context.Background(), ds, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		tinyData.pipe = pipe
	}
	return tinyData.ds, tinyData.w, tinyData.pipe
}

// dowbjData memoizes the 60-day DowBJ-like dataset: five default windows,
// where tiny is one.
var dowbjData *model.Dataset

func dowbj(t *testing.T) *model.Dataset {
	t.Helper()
	if dowbjData == nil {
		ds, _, err := synth.Generate(synth.DowBJ())
		if err != nil {
			t.Fatal(err)
		}
		dowbjData = ds
	}
	return dowbjData
}

func TestBuildPoolBasics(t *testing.T) {
	_, _, pipe := tiny(t)
	pool := pipe.Pool
	if len(pool.Locations) == 0 {
		t.Fatal("empty pool")
	}
	// No two pool locations within the clustering cutoff.
	for i := range pool.Locations {
		for j := i + 1; j < len(pool.Locations); j++ {
			if geo.Dist(pool.Locations[i].Loc, pool.Locations[j].Loc) <= 1 {
				t.Fatalf("locations %d and %d coincide", i, j)
			}
		}
	}
	for _, l := range pool.Locations {
		if l.NStays <= 0 {
			t.Errorf("location %d has no stays", l.ID)
		}
		if l.AvgDuration <= 0 {
			t.Errorf("location %d has non-positive avg duration", l.ID)
		}
		if l.NCouriers < 1 {
			t.Errorf("location %d has no couriers", l.ID)
		}
		var sum float64
		for _, v := range l.TimeDist {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("location %d time distribution sums to %v", l.ID, sum)
		}
	}
}

func TestPoolVisitsChronological(t *testing.T) {
	_, _, pipe := tiny(t)
	for ti, vs := range pipe.Pool.Visits {
		for i := 1; i < len(vs); i++ {
			if vs[i].ArriveT < vs[i-1].LeaveT {
				t.Fatalf("trip %d visits overlap", ti)
			}
		}
		for _, v := range vs {
			if v.MidT < v.ArriveT || v.MidT > v.LeaveT {
				t.Fatalf("trip %d visit MidT outside interval", ti)
			}
		}
	}
}

func TestPoolCoversGroundTruth(t *testing.T) {
	// For most addresses some pool location should be near the true
	// delivery location — otherwise candidate generation lost the signal.
	ds, _, pipe := tiny(t)
	covered, total := 0, 0
	for addr, truth := range ds.Truth {
		if len(pipe.tripsOfAddr[addr]) == 0 {
			continue
		}
		total++
		if _, d := nearestLocation(pipe.Pool, truth); d < 30 {
			covered++
		}
	}
	if frac := float64(covered) / float64(total); frac < 0.85 {
		t.Errorf("pool covers only %.0f%% of delivered addresses", frac*100)
	}
}

func TestGridPoolLargerThanHierarchical(t *testing.T) {
	// The paper observes DLInfMA-Grid generates many more locations.
	ds, _, pipe := tiny(t)
	cfg := DefaultConfig()
	cfg.UseGridMerge = true
	grid, err := BuildPool(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Locations) < len(pipe.Pool.Locations) {
		t.Errorf("grid pool %d smaller than hierarchical %d",
			len(grid.Locations), len(pipe.Pool.Locations))
	}
}

func TestRetrieveCandidates(t *testing.T) {
	ds, _, pipe := tiny(t)
	any := false
	for _, a := range ds.Addresses {
		cands := pipe.RetrieveCandidates(a.ID)
		if len(pipe.tripsOfAddr[a.ID]) == 0 {
			if len(cands) != 0 {
				t.Fatalf("address %d has candidates but no trips", a.ID)
			}
			continue
		}
		any = true
		seen := map[int]bool{}
		for _, c := range cands {
			if c < 0 || c >= len(pipe.Pool.Locations) {
				t.Fatalf("candidate id %d out of range", c)
			}
			if seen[c] {
				t.Fatalf("duplicate candidate %d for address %d", c, a.ID)
			}
			seen[c] = true
		}
	}
	if !any {
		t.Fatal("no address had candidates")
	}
}

func TestTemporalFilterReducesCandidates(t *testing.T) {
	ds, _, pipe := tiny(t)
	filtered, unfiltered := 0, 0
	for _, a := range ds.Addresses {
		filtered += len(pipe.RetrieveCandidates(a.ID))
		unfiltered += len(pipe.retrieveAllVisited(a.ID))
	}
	if filtered > unfiltered {
		t.Fatalf("temporal filter added candidates: %d > %d", filtered, unfiltered)
	}
	if filtered == unfiltered {
		t.Error("temporal filter had no effect; expected some late stays to be excluded")
	}
}

func TestTemporalFilterExcludesLateStays(t *testing.T) {
	// Candidates must never come only from stays after the recorded time.
	ds, _, pipe := tiny(t)
	for _, a := range ds.Addresses[:50] {
		cands := pipe.RetrieveCandidates(a.ID)
		for _, c := range cands {
			ok := false
			for _, ti := range pipe.tripsOfAddr[a.ID] {
				var td float64 = math.Inf(-1)
				for _, w := range ds.Trips[ti].Waybills {
					if w.Addr == a.ID && w.RecordedDeliveryT > td {
						td = w.RecordedDeliveryT
					}
				}
				for _, v := range pipe.Pool.Visits[ti] {
					if v.LocID == c && v.MidT <= td {
						ok = true
					}
				}
			}
			if !ok {
				t.Fatalf("candidate %d of address %d justified by no admissible stay", c, a.ID)
			}
		}
	}
}

func TestTripCoverageBounds(t *testing.T) {
	ds, _, pipe := tiny(t)
	for _, a := range ds.Addresses[:30] {
		for _, c := range pipe.RetrieveCandidates(a.ID) {
			tc := pipe.TripCoverage(c, a.ID)
			if tc < 0 || tc > 1 {
				t.Fatalf("TC out of range: %v", tc)
			}
		}
	}
	// Unknown location yields TC with zero numerator.
	if len(ds.Addresses) > 0 {
		a := ds.Addresses[0].ID
		if len(pipe.tripsOfAddr[a]) > 0 {
			// A location never visited by the address's trips: find one.
			visited := map[int]bool{}
			for _, t := range pipe.tripsOfAddr[a] {
				for _, v := range pipe.Pool.Visits[t] {
					visited[v.LocID] = true
				}
			}
			for id := range pipe.Pool.Locations {
				if !visited[id] {
					if tc := pipe.TripCoverage(id, a); tc != 0 {
						t.Fatalf("unvisited location has TC %v", tc)
					}
					break
				}
			}
		}
	}
}

func TestLocationCommonalityStationHigh(t *testing.T) {
	// The courier station is visited in every trip, so its LC must be much
	// higher than a typical doorstep's. Find the pool location nearest the
	// station of courier 0.
	ds, w, pipe := tiny(t)
	_ = w
	stationLoc, _ := nearestLocation(pipe.Pool, geo.Point{X: 300, Y: -120})
	var someAddr model.AddressID = -1
	for _, a := range ds.Addresses {
		if len(pipe.tripsOfAddr[a.ID]) >= 2 {
			someAddr = a.ID
			break
		}
	}
	if someAddr < 0 {
		t.Skip("no multi-trip address")
	}
	lcStation := pipe.LocationCommonality(stationLoc, someAddr, false)
	// Average LC across that address's candidates.
	var lcSum float64
	cands := pipe.RetrieveCandidates(someAddr)
	for _, c := range cands {
		lcSum += pipe.LocationCommonality(c, someAddr, false)
	}
	if len(cands) > 0 && lcStation <= lcSum/float64(len(cands)) {
		t.Errorf("station LC %.3f not above mean candidate LC %.3f",
			lcStation, lcSum/float64(len(cands)))
	}
}

func TestBuildSampleAndLabel(t *testing.T) {
	ds, _, pipe := tiny(t)
	opt := DefaultSampleOptions()
	samples := pipe.BuildSamples(addressIDs(ds), opt)
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	LabelSamples(samples, ds.Truth)
	labelled := 0
	for _, s := range samples {
		if len(s.Cands) == 0 {
			t.Fatal("sample without candidates")
		}
		if s.NDeliveries < 1 {
			t.Fatal("sample with zero deliveries")
		}
		if s.Label >= 0 {
			labelled++
			if s.Label >= len(s.Cands) {
				t.Fatal("label out of range")
			}
		}
		for i := range s.Cands {
			f := s.FlatFeatures(i)
			if len(f) != FlatDim {
				t.Fatalf("flat features length %d, want %d", len(f), FlatDim)
			}
		}
	}
	if labelled < len(samples)*9/10 {
		t.Errorf("only %d/%d samples labelled", labelled, len(samples))
	}

	// Label quality: the nearest candidate should usually be close to the
	// truth (candidate generation recall).
	var within30 int
	for _, s := range samples {
		if s.Label >= 0 && s.LabelDist < 30 {
			within30++
		}
	}
	if frac := float64(within30) / float64(labelled); frac < 0.8 {
		t.Errorf("nearest candidate within 30 m for only %.0f%%", frac*100)
	}
}

func TestFeatureMaskZeroesGroups(t *testing.T) {
	ds, _, pipe := tiny(t)
	opt := DefaultSampleOptions()
	opt.Mask.TC = false
	opt.Mask.Profile = false
	s := pipe.BuildSamples(addressIDs(ds)[:20], opt)
	for _, sm := range s {
		for _, c := range sm.Cands {
			if c.TC != 0 || c.AvgDur != 0 || c.NCouriers != 0 {
				t.Fatal("masked features not zeroed")
			}
			if c.Dist == 0 && c.LC == 0 {
				continue // possible but rare; not an error
			}
		}
	}
}

func TestPredictedLocationFallback(t *testing.T) {
	s := &Sample{Geocode: geo.Point{X: 1, Y: 2}}
	if s.PredictedLocation(-1) != (geo.Point{X: 1, Y: 2}) {
		t.Error("out-of-range prediction should fall back to the geocode")
	}
}

func addressIDs(ds *model.Dataset) []model.AddressID {
	out := make([]model.AddressID, len(ds.Addresses))
	for i, a := range ds.Addresses {
		out[i] = a.ID
	}
	return out
}

func TestLocMatcherTrainsAndPredicts(t *testing.T) {
	ds, w, pipe := tiny(t)
	samples := pipe.BuildSamples(addressIDs(ds), DefaultSampleOptions())
	LabelSamples(samples, ds.Truth)
	split := synth.SplitSpatial(ds, w, 0.6, 0.2)
	inSet := func(ids []model.AddressID) []*Sample {
		var out []*Sample
		for _, s := range samples {
			if slices.Contains(ids, s.Addr) {
				out = append(out, s)
			}
		}
		return out
	}
	train, val, test := inSet(split.Train), inSet(split.Val), inSet(split.Test)

	cfg := DefaultLocMatcherConfig()
	cfg.MaxEpochs = 15
	cfg.LR = 1e-3 // tiny data: larger rate converges within the epoch budget
	m := NewLocMatcher(cfg)
	res, err := m.Fit(context.Background(), train, val)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 || math.IsInf(res.BestValLoss, 1) {
		t.Fatalf("training did not run: %+v", res)
	}

	// Accuracy on test: correct if predicted location within 50 m of truth.
	correct, total := 0, 0
	baselineCorrect := 0 // random candidate baseline: first candidate
	for _, s := range test {
		if s.Label < 0 {
			continue
		}
		total++
		pred := m.Predict(s)
		if pred < 0 || pred >= len(s.Cands) {
			t.Fatalf("invalid prediction %d", pred)
		}
		if geo.Dist(s.PredictedLocation(pred), s.Truth) < 50 {
			correct++
		}
		if geo.Dist(s.PredictedLocation(0), s.Truth) < 50 {
			baselineCorrect++
		}
	}
	if total == 0 {
		t.Fatal("no test samples")
	}
	acc := float64(correct) / float64(total)
	base := float64(baselineCorrect) / float64(total)
	if acc < base {
		t.Errorf("LocMatcher accuracy %.2f below trivial baseline %.2f", acc, base)
	}
	if acc < 0.4 {
		t.Errorf("LocMatcher accuracy %.2f too low", acc)
	}

	probs := m.Probabilities(test[0])
	var sum float64
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

// Pick is Section IV-B's rule: the highest probability, ties to the lower
// index, -1 for no candidates.
func TestPickTiesGoToTheLowerIndex(t *testing.T) {
	for _, tc := range []struct {
		probs []float64
		idx   int
		p     float64
	}{
		{nil, -1, 0},
		{[]float64{1}, 0, 1},
		{[]float64{0.2, 0.5, 0.3}, 1, 0.5},
		{[]float64{0.4, 0.2, 0.4}, 0, 0.4},
		{[]float64{0.1, 0.45, 0.45}, 1, 0.45},
	} {
		if idx, p := Pick(tc.probs); idx != tc.idx || p != tc.p {
			t.Errorf("Pick(%v) = %d, %v; want %d, %v", tc.probs, idx, p, tc.idx, tc.p)
		}
	}
}

// Probabilities answers a one-candidate sample with {1} and no forward
// pass; that must stay exactly what the forward pass and its softmax give.
func TestOneCandidateProbabilityIsTheSoftmax(t *testing.T) {
	samples := trainSamples(t)
	cfg := goldenCfg(1)
	cfg.MaxEpochs = 1
	m := NewLocMatcher(cfg)
	if _, err := m.Fit(context.Background(), samples, nil); err != nil {
		t.Fatal(err)
	}
	tape := nn.NewTape()
	for _, s := range samples {
		one := *s
		one.Cands = s.Cands[:1]
		got := m.Probabilities(&one)
		want := nn.Softmax1D(m.forward(&one, false, tape, nil))
		tape.Reset()
		if len(got) != 1 || math.Float64bits(got[0]) != math.Float64bits(1) ||
			len(want) != 1 || math.Float64bits(want[0]) != math.Float64bits(got[0]) {
			t.Fatalf("address %d: Probabilities = %v, softmax of the forward pass = %v, want both [1]", s.Addr, got, want)
		}
		if pred := m.Predict(&one); pred != 0 {
			t.Fatalf("address %d: Predict = %d over one candidate", s.Addr, pred)
		}
	}
}

func TestLocMatcherNoContextVariant(t *testing.T) {
	ds, _, pipe := tiny(t)
	samples := pipe.BuildSamples(addressIDs(ds)[:60], DefaultSampleOptions())
	LabelSamples(samples, ds.Truth)
	cfg := DefaultLocMatcherConfig()
	cfg.NoContext = true
	cfg.MaxEpochs = 2
	m := NewLocMatcher(cfg)
	if _, err := m.Fit(context.Background(), samples, nil); err != nil {
		t.Fatal(err)
	}
	if p := m.Predict(samples[0]); p < 0 || p >= len(samples[0].Cands) {
		t.Fatalf("invalid prediction %d", p)
	}
}

func TestLocMatcherFitRequiresLabels(t *testing.T) {
	m := NewLocMatcher(DefaultLocMatcherConfig())
	if _, err := m.Fit(context.Background(), nil, nil); err == nil {
		t.Error("expected error for empty training set")
	}
}

func TestLocMatcherSingleCandidate(t *testing.T) {
	m := NewLocMatcher(DefaultLocMatcherConfig())
	s := &Sample{Cands: []Candidate{{LocID: 0}}}
	if m.Predict(s) != 0 {
		t.Error("single candidate must be chosen")
	}
	if m.Predict(&Sample{}) != -1 {
		t.Error("no candidates must yield -1")
	}
}

func TestLocMatcherExplain(t *testing.T) {
	ds, _, pipe := tiny(t)
	samples := pipe.BuildSamples(addressIDs(ds)[:40], DefaultSampleOptions())
	LabelSamples(samples, ds.Truth)
	cfg := DefaultLocMatcherConfig()
	cfg.MaxEpochs = 3
	m := NewLocMatcher(cfg)
	if _, err := m.Fit(context.Background(), samples, nil); err != nil {
		t.Fatal(err)
	}
	s := samples[0]
	ex := m.Explain(s)
	if len(ex) != len(s.Cands) {
		t.Fatalf("explanation has %d entries, want %d", len(ex), len(s.Cands))
	}
	var sum float64
	for i, e := range ex {
		sum += e.Prob
		if i > 0 && e.Prob > ex[i-1].Prob {
			t.Fatal("explanation not sorted by probability")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
	if ex[0].Index != m.Predict(s) {
		t.Error("top explanation disagrees with Predict")
	}
	if m.Explain(&Sample{}) != nil {
		t.Error("empty sample should have nil explanation")
	}
}

func TestLocMatcherPermutationInvariance(t *testing.T) {
	// With the transformer encoder (no positional encoding) and per-sample
	// softmax, shuffling the candidate order must not change which location
	// is predicted — the property that justifies the set-based design
	// (Section IV-B).
	ds, _, pipe := tiny(t)
	samples := pipe.BuildSamples(addressIDs(ds)[:50], DefaultSampleOptions())
	LabelSamples(samples, ds.Truth)
	cfg := DefaultLocMatcherConfig()
	cfg.MaxEpochs = 3
	m := NewLocMatcher(cfg)
	if _, err := m.Fit(context.Background(), samples, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for _, s := range samples[:15] {
		if len(s.Cands) < 2 {
			continue
		}
		want := s.Cands[m.Predict(s)].LocID
		perm := &Sample{
			Addr: s.Addr, POI: s.POI, NDeliveries: s.NDeliveries,
			Geocode: s.Geocode, Label: -1,
			Cands: append([]Candidate(nil), s.Cands...),
		}
		rng.Shuffle(len(perm.Cands), func(i, j int) {
			perm.Cands[i], perm.Cands[j] = perm.Cands[j], perm.Cands[i]
		})
		if got := perm.Cands[m.Predict(perm)].LocID; got != want {
			t.Fatalf("address %d: prediction changed under permutation (%d vs %d)", s.Addr, got, want)
		}
	}
}

// nearestLocation returns the pool location closest to q and its distance,
// the lower id on a tie, or (-1, +Inf) for an empty pool.
func nearestLocation(p *Pool, q geo.Point) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i, l := range p.Locations {
		if d := geo.Dist(l.Loc, q); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}
