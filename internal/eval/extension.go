package eval

import (
	"context"
	"fmt"
	"io"

	"dlinfma/internal/baselines"
	"dlinfma/internal/core"
	"dlinfma/internal/deploy"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/traj"
)

// BuildingFallbackResult measures the deployed system's three-level query
// chain (Section VI-A) on addresses never seen in history: the paper adapts
// address-level inference to building level by answering with the
// building's most-used delivery location, falling back to the geocode when
// even the building is unknown.
type BuildingFallbackResult struct {
	// Held-out addresses answered at each level.
	ByBuilding Metrics
	ByGeocode  Metrics
	// All held-out addresses through the full fallback chain.
	Chain Metrics
	// Fraction of held-out addresses answered at building level.
	BuildingCoverage float64
}

// BuildingFallback holds out one address from every multi-address building,
// trains DLInfMA on the rest, loads the inferred locations into a
// deploy.Store, and evaluates the answers of its frozen form — the table a
// shard serves — for the held-out addresses as if they had never been
// delivered — exercising the building-majority
// fallback the paper describes for real-time cases. (The spatial test split
// cannot exercise this chain: it holds out whole buildings, which never have
// known siblings.)
func BuildingFallback(ctx context.Context, p *Prepared) (BuildingFallbackResult, error) {
	var res BuildingFallbackResult

	// Hold out the highest-ID address of each building with >= 2 addresses.
	lastOfBld := make(map[model.BuildingID]model.AddressID)
	countOfBld := make(map[model.BuildingID]int)
	for _, a := range p.DS.Addresses {
		countOfBld[a.Building]++
		if cur, ok := lastOfBld[a.Building]; !ok || a.ID > cur {
			lastOfBld[a.Building] = a.ID
		}
	}
	holdout := make(map[model.AddressID]bool)
	for b, id := range lastOfBld {
		if countOfBld[b] >= 2 {
			holdout[id] = true
		}
	}
	var known []model.AddressID
	for _, a := range p.DS.Addresses {
		if !holdout[a.ID] {
			known = append(known, a.ID)
		}
	}
	nVal := len(known) / 5
	m := dlinfmaForExperiments()
	if err := m.Fit(ctx, p.Env, known[nVal:], known[:nVal]); err != nil {
		return res, err
	}

	store := deploy.NewStore()
	store.LoadDataset(p.DS)
	for _, addr := range known {
		if loc, ok := m.Predict(p.Env, addr); ok {
			store.Put(addr, loc)
		}
	}
	frozen := store.Freeze()

	var bldErrs, geoErrs, chainErrs []float64
	nBld := 0
	for addr := range holdout {
		truth, ok := p.DS.Truth[addr]
		if !ok {
			continue
		}
		loc, src := frozen.Query(addr)
		if src == deploy.SourceNone {
			continue
		}
		err := geo.Dist(loc, truth)
		chainErrs = append(chainErrs, err)
		switch src {
		case deploy.SourceBuilding:
			nBld++
			bldErrs = append(bldErrs, err)
		case deploy.SourceGeocode:
			geoErrs = append(geoErrs, err)
		}
	}
	res.ByBuilding = Compute(bldErrs)
	res.ByGeocode = Compute(geoErrs)
	res.Chain = Compute(chainErrs)
	if len(chainErrs) > 0 {
		res.BuildingCoverage = float64(nBld) / float64(len(chainErrs))
	}
	return res, nil
}

// RenderBuildingFallback writes the extension experiment's results.
func RenderBuildingFallback(w io.Writer, name string, r BuildingFallbackResult) {
	fmt.Fprintf(w, "Extension (%s): building-level fallback for unseen addresses\n", name)
	fmt.Fprintf(w, "  building-level answers: %5.1f%% of queries, MAE %.1f m, beta50 %.1f%%\n",
		100*r.BuildingCoverage, r.ByBuilding.MAE, r.ByBuilding.Beta50)
	fmt.Fprintf(w, "  geocode fallback:       MAE %.1f m, beta50 %.1f%%\n", r.ByGeocode.MAE, r.ByGeocode.Beta50)
	fmt.Fprintf(w, "  full chain:             MAE %.1f m, beta50 %.1f%% (n=%d)\n\n",
		r.Chain.MAE, r.Chain.Beta50, r.Chain.N)
}

// StaySweepPoint is one stay-point-threshold sensitivity measurement
// (Section III-A sets D_max = 20 m, T_min = 30 s following [5]; this
// extension quantifies how sensitive candidate generation is to them).
type StaySweepPoint struct {
	DMax float64
	TMin float64
	// NPoolLocs is the candidate pool size.
	NPoolLocs int
	// CeilingMAE is the mean distance from each labelled address's best
	// candidate to the truth — the irreducible error of candidate
	// generation under these thresholds.
	CeilingMAE float64
	// HeuristicMAE evaluates the cheap MaxTC-ILC selector on the test split,
	// isolating candidate-generation quality from model training.
	HeuristicMAE float64
}

// StaySweep rebuilds the pipeline for each stay-point configuration and
// measures pool size, labelling ceiling, and the heuristic selector's MAE.
func StaySweep(ctx context.Context, p *Prepared, configs []traj.StayPointConfig) []StaySweepPoint {
	var out []StaySweepPoint
	for _, sc := range configs {
		cfg := p.Env.Pipe.Cfg
		cfg.Stay = sc
		env, err := baselines.NewEnv(ctx, p.DS, cfg)
		if err != nil {
			return out
		}
		pt := StaySweepPoint{DMax: sc.DMax, TMin: sc.TMin, NPoolLocs: len(env.Pipe.Pool.Locations)}

		samples := env.Samples(core.DefaultSampleOptions(), false)
		var ceil []float64
		for _, s := range samples {
			if s.Label >= 0 {
				ceil = append(ceil, s.LabelDist)
			}
		}
		pt.CeilingMAE = Compute(ceil).MAE

		m := baselines.MaxTCILC{}
		if res, err := EvaluateMethod(ctx, env, m, p.Split.Train, p.Split.Val, p.Split.Test); err == nil {
			pt.HeuristicMAE = res.MAE
		}
		out = append(out, pt)
	}
	return out
}

// RenderStaySweep writes the sensitivity table.
func RenderStaySweep(w io.Writer, name string, pts []StaySweepPoint) {
	fmt.Fprintf(w, "Extension (%s): stay-point threshold sensitivity\n", name)
	fmt.Fprintf(w, "%8s %8s %10s %12s %14s\n", "Dmax(m)", "Tmin(s)", "#locations", "ceiling MAE", "MaxTC-ILC MAE")
	for _, p := range pts {
		fmt.Fprintf(w, "%8.0f %8.0f %10d %12.1f %14.1f\n", p.DMax, p.TMin, p.NPoolLocs, p.CeilingMAE, p.HeuristicMAE)
	}
	fmt.Fprintln(w)
}
