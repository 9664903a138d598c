package engine_test

import (
	"context"
	"math"
	"testing"

	"dlinfma/internal/deploy"
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/engine"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/shard"
	"dlinfma/internal/synth"
)

// querier is the read surface the brute-force diff needs.
type querier interface {
	Query(addr model.AddressID) (geo.Point, deploy.Source)
}

// servedAnswers enumerates every dataset address the engine currently
// answers, through the public read path — the ground truth a swap report
// must agree with.
func servedAnswers(q querier, ds *model.Dataset) map[model.AddressID]geo.Point {
	out := make(map[model.AddressID]geo.Point, len(ds.Addresses))
	for _, a := range ds.Addresses {
		if p, src := q.Query(a.ID); src != deploy.SourceNone {
			out[a.ID] = p
		}
	}
	return out
}

// bruteChurn is the brute-force diff of two served answer maps.
type bruteChurn struct {
	added, dropped, moved, retained int64
}

func bruteDiff(before, after map[model.AddressID]geo.Point) bruteChurn {
	var c bruteChurn
	for addr, p2 := range after {
		p1, ok := before[addr]
		switch {
		case !ok:
			c.added++
		case p1 == p2:
			c.retained++
		default:
			c.moved++
		}
	}
	for addr := range before {
		if _, ok := after[addr]; !ok {
			c.dropped++
		}
	}
	return c
}

// splitDataset halves the trips so two consecutive ingest+reinfer rounds see
// different evidence and the second swap produces real churn.
func splitDataset(ds *model.Dataset) (*model.Dataset, *model.Dataset) {
	half := len(ds.Trips) / 2
	first := &model.Dataset{Name: ds.Name, Trips: ds.Trips[:half], Addresses: ds.Addresses, Truth: ds.Truth}
	second := &model.Dataset{Name: ds.Name, Trips: ds.Trips[half:]}
	return first, second
}

// checkReportAgainstBrute asserts one aggregated swap report equals the
// brute-force diff of the served answers around the swap.
func checkReportAgainstBrute(t *testing.T, added, dropped, moved, retained int64, before, after int,
	m1, m2 map[model.AddressID]geo.Point) {
	t.Helper()
	want := bruteDiff(m1, m2)
	if added != want.added || dropped != want.dropped || moved != want.moved || retained != want.retained {
		t.Errorf("report added/dropped/moved/retained = %d/%d/%d/%d, brute diff = %d/%d/%d/%d",
			added, dropped, moved, retained, want.added, want.dropped, want.moved, want.retained)
	}
	if before != len(m1) || after != len(m2) {
		t.Errorf("report before/after = %d/%d, served answer counts = %d/%d", before, after, len(m1), len(m2))
	}
}

// TestSwapReportMatchesBruteDiff runs two consecutive re-inferences on a
// single engine and checks the published churn report against a brute-force
// diff of what the public Query path actually served before and after.
func TestSwapReportMatchesBruteDiff(t *testing.T) {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	ds1, ds2 := splitDataset(ds)
	e := engine.New(quickConfig())
	defer e.Close()
	ctx := context.Background()

	if err := e.IngestDataset(ctx, ds1); err != nil {
		t.Fatal(err)
	}
	if err := e.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}
	m1 := servedAnswers(e, ds)
	if len(m1) == 0 {
		t.Fatal("no served answers after the first re-inference")
	}
	reps := e.SwapReports(0)
	if len(reps) != 1 {
		t.Fatalf("after one reinfer got %d swap reports, want 1", len(reps))
	}
	// Cold boot: no outgoing store, everything is an add.
	checkReportAgainstBrute(t, reps[0].Added, reps[0].Dropped, reps[0].Moved, reps[0].Retained,
		reps[0].Before, reps[0].After, nil, m1)
	if reps[0].Kind != "reinfer" {
		t.Errorf("first report kind = %q, want reinfer", reps[0].Kind)
	}

	if err := e.IngestDataset(ctx, ds2); err != nil {
		t.Fatal(err)
	}
	if err := e.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}
	m2 := servedAnswers(e, ds)
	reps = e.SwapReports(0)
	if len(reps) != 2 {
		t.Fatalf("after two reinfers got %d swap reports, want 2", len(reps))
	}
	latest := reps[0] // newest first
	if latest.Seq != 2 {
		t.Errorf("latest report seq = %d, want 2", latest.Seq)
	}
	checkReportAgainstBrute(t, latest.Added, latest.Dropped, latest.Moved, latest.Retained,
		latest.Before, latest.After, m1, m2)
	checkReportInvariants(t, latest)
}

// checkReportInvariants asserts the internal consistency of one report: the
// ratio matches its own counts, the distance buckets sum to Moved, and the
// summary stats only exist when something moved.
func checkReportInvariants(t *testing.T, rep api.SwapReport) {
	t.Helper()
	den := rep.Moved + rep.Retained
	wantRatio := 0.0
	if den > 0 {
		wantRatio = float64(rep.Moved) / float64(den)
	}
	if math.Abs(rep.ChurnRatio-wantRatio) > 1e-12 {
		t.Errorf("ChurnRatio = %v, want %v from moved=%d retained=%d", rep.ChurnRatio, wantRatio, rep.Moved, rep.Retained)
	}
	var bucketSum int64
	for _, b := range rep.MovedDistance {
		bucketSum += b.Count
	}
	if bucketSum != rep.Moved {
		t.Errorf("distance buckets sum to %d, want Moved=%d", bucketSum, rep.Moved)
	}
	if rep.Moved == 0 && (rep.MeanMovedMeters != 0 || rep.MaxMovedMeters != 0) {
		t.Errorf("nothing moved but mean/max = %v/%v", rep.MeanMovedMeters, rep.MaxMovedMeters)
	}
	if rep.Moved > 0 && rep.MaxMovedMeters < rep.MeanMovedMeters {
		t.Errorf("max moved %v < mean moved %v", rep.MaxMovedMeters, rep.MeanMovedMeters)
	}
}

// TestShardedSwapReportsMatchBruteDiff repeats the brute-force check against
// a sharded engine: each shard owns a disjoint address set, so the sum of the
// newest per-shard reports must equal the global diff of the public read
// path.
func TestShardedSwapReportsMatchBruteDiff(t *testing.T) {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	ds1, ds2 := splitDataset(ds)
	r, err := shard.NewRouter(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.NewSharded(quickConfig(), r)
	defer e.Close()
	ctx := context.Background()

	if err := e.IngestDataset(ctx, ds1); err != nil {
		t.Fatal(err)
	}
	if err := e.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}
	m1 := servedAnswers(e, ds)
	if err := e.IngestDataset(ctx, ds2); err != nil {
		t.Fatal(err)
	}
	if err := e.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}
	m2 := servedAnswers(e, ds)

	// Newest report per shard covers the second swap; summed they must equal
	// the global brute diff because shards partition the address space.
	newest := map[string]api.SwapReport{}
	for _, rep := range e.SwapReports(0) {
		if _, seen := newest[rep.Shard]; !seen {
			newest[rep.Shard] = rep // list is newest-first
		}
	}
	var added, dropped, moved, retained int64
	var before, after int
	for sh, rep := range newest {
		if rep.Seq != 2 {
			t.Errorf("shard %s newest report seq = %d, want 2 (one report per reinfer)", sh, rep.Seq)
		}
		added += rep.Added
		dropped += rep.Dropped
		moved += rep.Moved
		retained += rep.Retained
		before += rep.Before
		after += rep.After
		checkReportInvariants(t, rep)
	}
	checkReportAgainstBrute(t, added, dropped, moved, retained, before, after, m1, m2)
}
