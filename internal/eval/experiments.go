package eval

import (
	"context"
	"sort"
	"time"

	"dlinfma/internal/baselines"
	"dlinfma/internal/core"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/synth"
	"dlinfma/internal/traj"
)

// ExperimentLocMatcherConfig is the LocMatcher configuration used by the
// experiment harness. It keeps the paper's architecture but trains faster
// and longer than the paper's schedule (LR 1e-4 halved every 5 epochs, at
// most 60 epochs, patience 6): LR 3e-3 halved every 25 epochs, at most 150
// epochs, early stopping after 20 without improvement. The synthetic
// datasets are two orders of magnitude smaller than JD's, so the paper's
// 1e-4 would need far more epochs to converge.
func ExperimentLocMatcherConfig() core.LocMatcherConfig {
	cfg := core.DefaultLocMatcherConfig()
	cfg.LR = 3e-3
	cfg.LRStepEpochs = 25
	cfg.MaxEpochs = 150
	cfg.Patience = 20
	return cfg
}

// Prepared bundles a generated dataset with its split and environment.
type Prepared struct {
	Profile synth.Profile
	DS      *model.Dataset
	World   *synth.World
	Split   synth.Split
	Env     *baselines.Env
}

// Prepare generates a dataset from the profile (with its organic delays)
// and builds the shared pipeline and split.
func Prepare(ctx context.Context, p synth.Profile, cfg core.Config) (*Prepared, error) {
	ds, w, err := synth.Generate(p)
	if err != nil {
		return nil, err
	}
	return prepared(ctx, p, ds, w, cfg)
}

// PrepareWithDelay generates the clean dataset and injects delays at the
// given probability (Table III's synthetic datasets).
func PrepareWithDelay(ctx context.Context, p synth.Profile, pd float64, cfg core.Config) (*Prepared, error) {
	clean, w, err := synth.GenerateClean(p)
	if err != nil {
		return nil, err
	}
	ds := synth.InjectDelays(clean, pd, p.DelayBatches, p.Seed+2)
	return prepared(ctx, p, ds, w, cfg)
}

func prepared(ctx context.Context, p synth.Profile, ds *model.Dataset, w *synth.World, cfg core.Config) (*Prepared, error) {
	env, err := baselines.NewEnv(ctx, ds, cfg)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		Profile: p,
		DS:      ds,
		World:   w,
		Split:   synth.SplitSpatial(ds, w, 0.6, 0.2),
		Env:     env,
	}, nil
}

// dlinfmaForExperiments returns the main method tuned for the harness.
func dlinfmaForExperiments() *baselines.DLInfMA {
	d := baselines.NewDLInfMA()
	d.Model = ExperimentLocMatcherConfig()
	return d
}

// experimentMethod applies the experiment LocMatcher config to DLInfMA-family
// methods produced by name.
func experimentMethod(name string) (baselines.Method, error) {
	m, err := baselines.Variant(name)
	if err != nil {
		return nil, err
	}
	if d, ok := m.(*baselines.DLInfMA); ok {
		base := ExperimentLocMatcherConfig()
		base.NoContext = d.Model.NoContext
		base.UseLSTM = d.Model.UseLSTM
		base.LSTMHidden = d.Model.LSTMHidden
		d.Model = base
	}
	return m, nil
}

// Table1Row is one dataset's statistics (the paper's Table I).
type Table1Row struct {
	Name                    string
	Trips                   int
	Waybills                int
	Addresses               int
	Buildings               int
	TrajPoints              int
	TrainAddrs              int
	ValAddrs                int
	TestAddrs               int
	DelayedFraction         float64
	MeanDeliveriesPerAddr   float64
	MedianDeliveriesPerAddr int
}

// Table1 computes dataset statistics.
func Table1(p *Prepared) Table1Row {
	counts := deliveriesPerAddress(p.DS)
	var cs []int
	var sum int
	for _, c := range counts {
		cs = append(cs, c)
		sum += c
	}
	sort.Ints(cs)
	row := Table1Row{
		Name:       p.Profile.Name,
		Trips:      len(p.DS.Trips),
		Waybills:   p.DS.Deliveries(),
		Addresses:  len(p.DS.Addresses),
		Buildings:  len(p.World.Buildings),
		TrajPoints: p.DS.TrajectoryPoints(),
		TrainAddrs: len(p.Split.Train),
		ValAddrs:   len(p.Split.Val),
		TestAddrs:  len(p.Split.Test),
	}
	st := synth.MeasureDelays(p.DS)
	if st.Waybills > 0 {
		row.DelayedFraction = float64(st.Delayed) / float64(st.Waybills)
	}
	if len(cs) > 0 {
		row.MeanDeliveriesPerAddr = float64(sum) / float64(len(cs))
		row.MedianDeliveriesPerAddr = cs[len(cs)/2]
	}
	return row
}

func deliveriesPerAddress(ds *model.Dataset) map[model.AddressID]int {
	counts := make(map[model.AddressID]int)
	for _, tr := range ds.Trips {
		for _, w := range tr.Waybills {
			counts[w.Addr]++
		}
	}
	return counts
}

// Fig9 reproduces the four data-statistics distributions of Figure 9.
type Fig9Result struct {
	// LocationsPerBuilding[k] = number of buildings whose addresses use k
	// distinct delivery locations (k>=1; index 0 unused).
	LocationsPerBuilding []int
	// MultiLocationBuildingFraction is the share of buildings with more than
	// one delivery location (paper: >22% DowBJ, >14% SubBJ).
	MultiLocationBuildingFraction float64
	// DeliveriesPerAddressCDF maps a delivery count to the fraction of
	// addresses with at most that many deliveries, at probe points.
	DeliveriesCDFProbes []int
	DeliveriesCDF       []float64
	MedianDeliveries    int
	// StayPointsPerTrip mean and histogram (bucketed by 5).
	MeanStayPointsPerTrip float64
	// CandidatesPerAddress mean.
	MeanCandidatesPerAddr float64
}

// Fig9 computes the distributions.
func Fig9(p *Prepared) Fig9Result {
	var r Fig9Result

	// (a) distinct delivery locations per building.
	locsOfBld := make(map[model.BuildingID]map[[2]float64]bool)
	for _, a := range p.DS.Addresses {
		t, ok := p.DS.Truth[a.ID]
		if !ok {
			continue
		}
		m := locsOfBld[a.Building]
		if m == nil {
			m = make(map[[2]float64]bool)
			locsOfBld[a.Building] = m
		}
		m[[2]float64{t.X, t.Y}] = true
	}
	maxK := 0
	for _, m := range locsOfBld {
		if len(m) > maxK {
			maxK = len(m)
		}
	}
	r.LocationsPerBuilding = make([]int, maxK+1)
	multi := 0
	for _, m := range locsOfBld {
		r.LocationsPerBuilding[len(m)]++
		if len(m) > 1 {
			multi++
		}
	}
	if len(locsOfBld) > 0 {
		r.MultiLocationBuildingFraction = float64(multi) / float64(len(locsOfBld))
	}

	// (b) deliveries per address CDF.
	counts := deliveriesPerAddress(p.DS)
	var cs []int
	for _, c := range counts {
		cs = append(cs, c)
	}
	sort.Ints(cs)
	r.DeliveriesCDFProbes = []int{1, 2, 3, 5, 10, 20, 50}
	for _, probe := range r.DeliveriesCDFProbes {
		n := sort.SearchInts(cs, probe+1)
		r.DeliveriesCDF = append(r.DeliveriesCDF, float64(n)/float64(len(cs)))
	}
	if len(cs) > 0 {
		r.MedianDeliveries = cs[len(cs)/2]
	}

	// (c) stay points per trip.
	cfg := p.Env.Pipe.Cfg
	total := 0
	for _, tr := range p.DS.Trips {
		total += len(traj.ExtractStayPoints(tr.Traj, cfg.Noise, cfg.Stay))
	}
	if len(p.DS.Trips) > 0 {
		r.MeanStayPointsPerTrip = float64(total) / float64(len(p.DS.Trips))
	}

	// (d) candidates per address.
	nc, na := 0, 0
	for _, a := range p.DS.Addresses {
		c := p.Env.Pipe.RetrieveCandidates(a.ID)
		if len(c) > 0 {
			nc += len(c)
			na++
		}
	}
	if na > 0 {
		r.MeanCandidatesPerAddr = float64(nc) / float64(na)
	}
	return r
}

// Table2Methods returns the nine baseline methods of Table II with the
// experiment LocMatcher configuration applied to DLInfMA.
func Table2Methods() []baselines.Method {
	return []baselines.Method{
		baselines.Geocoding{},
		baselines.Annotation{},
		baselines.GeoCloud{},
		&baselines.GeoRank{},
		&baselines.UNetBased{},
		baselines.MinDist{},
		baselines.MaxTC{},
		baselines.MaxTCILC{},
		dlinfmaForExperiments(),
	}
}

// Table2 evaluates all baselines (and optionally all variants and
// ablations) on a prepared dataset.
func Table2(ctx context.Context, p *Prepared, includeVariants bool) []MethodResult {
	methods := Table2Methods()
	if includeVariants {
		for _, name := range baselines.AllVariantNames() {
			m, err := experimentMethod(name)
			if err == nil {
				methods = append(methods, m)
			}
		}
	}
	return EvaluateAll(ctx, p.Env, methods, p.Split.Train, p.Split.Val, p.Split.Test)
}

// Fig10aPoint is one sweep point of Figure 10(a).
type Fig10aPoint struct {
	D         float64
	MAE       float64
	NPoolLocs int
}

// Fig10a sweeps the clustering distance D and reports DLInfMA's MAE.
func Fig10a(ctx context.Context, p *Prepared, ds []float64) []Fig10aPoint {
	var out []Fig10aPoint
	for _, d := range ds {
		cfg := p.Env.Pipe.Cfg
		cfg.ClusterDistance = d
		env, err := baselines.NewEnv(ctx, p.DS, cfg)
		if err != nil {
			return out
		}
		m := dlinfmaForExperiments()
		res, err := EvaluateMethod(ctx, env, m, p.Split.Train, p.Split.Val, p.Split.Test)
		pt := Fig10aPoint{D: d, NPoolLocs: len(env.Pipe.Pool.Locations)}
		if err == nil {
			pt.MAE = res.MAE
		}
		out = append(out, pt)
	}
	return out
}

// Fig10bResult holds per-group MAE for the five methods of Figure 10(b).
type Fig10bResult struct {
	// GroupBounds are the (inclusive) upper delivery-count bounds of the
	// three equal-frequency groups.
	GroupBounds [3]int
	// MAE[method][group]
	Methods []string
	MAE     [][3]float64
}

// Fig10b divides test addresses into three equal-frequency groups by number
// of deliveries and reports MAE per group for the representative methods.
func Fig10b(ctx context.Context, p *Prepared) Fig10bResult {
	counts := deliveriesPerAddress(p.DS)
	// Sort test addresses by delivery count.
	test := append([]model.AddressID(nil), p.Split.Test...)
	sort.Slice(test, func(i, j int) bool { return counts[test[i]] < counts[test[j]] })
	var groups [3][]model.AddressID
	for i, a := range test {
		groups[i*3/len(test)] = append(groups[i*3/len(test)], a)
	}
	var res Fig10bResult
	for g := 0; g < 3; g++ {
		if n := len(groups[g]); n > 0 {
			res.GroupBounds[g] = counts[groups[g][n-1]]
		}
	}
	methods := []baselines.Method{
		baselines.GeoCloud{},
		baselines.MaxTCILC{},
		&baselines.GeoRank{},
		&baselines.UNetBased{},
		dlinfmaForExperiments(),
	}
	for _, m := range methods {
		res.Methods = append(res.Methods, m.Name())
		var row [3]float64
		// Fit once on the full train set, evaluate per group.
		if err := m.Fit(ctx, p.Env, p.Split.Train, p.Split.Val); err == nil {
			for g := 0; g < 3; g++ {
				var errs []float64
				for _, addr := range groups[g] {
					truth, ok := p.DS.Truth[addr]
					if !ok {
						continue
					}
					pred, ok := m.Predict(p.Env, addr)
					if !ok {
						if info, ok2 := p.Env.Info(addr); ok2 {
							pred = info.Geocode
						} else {
							continue
						}
					}
					errs = append(errs, geo.Dist(pred, truth))
				}
				row[g] = Compute(errs).MAE
			}
		}
		res.MAE = append(res.MAE, row)
	}
	return res
}

// Table3Result is one delay level's evaluation.
type Table3Result struct {
	PD      float64
	Results []MethodResult
}

// Table3 evaluates the baselines under injected delays pd on the profile's
// clean data (the paper's synthetic datasets, Section V-D).
func Table3(ctx context.Context, p synth.Profile, pds []float64, cfg core.Config) ([]Table3Result, error) {
	var out []Table3Result
	for _, pd := range pds {
		prep, err := PrepareWithDelay(ctx, p, pd, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, Table3Result{PD: pd, Results: Table2(ctx, prep, false)})
	}
	return out, nil
}

// EfficiencyRow reports one worker count's wall-clock time per pipeline
// stage (the paper's Section V-F efficiency study, extended to the second
// stage): stay-point extraction, sample featurization, LocMatcher training,
// and batch inference over every sample.
type EfficiencyRow struct {
	Workers      int
	StayExtract  time.Duration
	BuildSamples time.Duration
	Fit          time.Duration
	Predict      time.Duration
	Epochs       int
}

// Efficiency measures the parallel pipeline's per-stage wall time at each
// worker count on the prepared dataset. Training is capped at maxEpochs
// (early stopping disabled by the cap being small) so rows are comparable;
// the candidate pool is reused across rows — clustering is not re-run.
func Efficiency(ctx context.Context, p *Prepared, workerCounts []int, maxEpochs int) []EfficiencyRow {
	ids := make([]model.AddressID, len(p.DS.Addresses))
	for i, a := range p.DS.Addresses {
		ids[i] = a.ID
	}
	var out []EfficiencyRow
	for _, w := range workerCounts {
		row := EfficiencyRow{Workers: w}
		cfg := p.Env.Pipe.Cfg
		cfg.Workers = w

		t0 := time.Now()
		if _, err := core.ExtractAllStayPoints(ctx, p.DS, cfg); err != nil {
			return out
		}
		row.StayExtract = time.Since(t0)

		pipe := *p.Env.Pipe
		pipe.Cfg.Workers = w
		t0 = time.Now()
		samples, err := pipe.BuildSamplesCtx(ctx, ids, core.DefaultSampleOptions())
		if err != nil {
			return out
		}
		row.BuildSamples = time.Since(t0)

		core.LabelSamples(samples, p.DS.Truth)
		mcfg := ExperimentLocMatcherConfig()
		mcfg.Workers = w
		mcfg.MaxEpochs = maxEpochs
		m := core.NewLocMatcher(mcfg)
		t0 = time.Now()
		res, err := m.Fit(ctx, samples, nil)
		row.Fit = time.Since(t0)
		if err != nil {
			if ctx.Err() != nil {
				return out
			}
			continue
		}
		row.Epochs = res.Epochs

		t0 = time.Now()
		if _, err := m.PredictAll(ctx, samples); err != nil {
			return out
		}
		row.Predict = time.Since(t0)
		out = append(out, row)
	}
	return out
}

// Fig13Point is one scalability measurement: inference wall time for a
// method over nAddresses.
type Fig13Point struct {
	Method     string
	NAddresses int
	Elapsed    time.Duration
}

// Fig13 measures inference time as the number of addresses grows, cycling
// through the test set to reach each size. Methods are fitted once.
func Fig13(ctx context.Context, p *Prepared, sizes []int) []Fig13Point {
	methods := []baselines.Method{
		baselines.GeoCloud{},
		baselines.MaxTCILC{},
		&baselines.GeoRank{},
		&baselines.UNetBased{},
		dlinfmaForExperiments(),
	}
	var out []Fig13Point
	for _, m := range methods {
		if err := m.Fit(ctx, p.Env, p.Split.Train, p.Split.Val); err != nil {
			if ctx.Err() != nil {
				return out
			}
			continue
		}
		// Warm the sample caches so we time inference, not featurization of
		// the first query (the deployed system also builds features offline).
		for _, addr := range p.Split.Test {
			m.Predict(p.Env, addr)
		}
		for _, size := range sizes {
			t0 := time.Now()
			for i := 0; i < size; i++ {
				addr := p.Split.Test[i%len(p.Split.Test)]
				m.Predict(p.Env, addr)
			}
			out = append(out, Fig13Point{Method: m.Name(), NAddresses: size, Elapsed: time.Since(t0)})
		}
	}
	return out
}
