// Production ingestion (Figure 14's data path): delivery trips are stored in
// the spatio-temporal engine and queried by block and time, compressed for
// archival, and fed window by window into the incremental candidate-pool
// builder — the bi-weekly maintenance loop of Section V-F.
package main

import (
	"context"
	"fmt"
	"log"

	"dlinfma/examples/ingestion/ststore"
	"dlinfma/internal/core"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/synth"
)

func main() {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		log.Fatal(err)
	}

	// 1. Ingest every trip into the spatio-temporal store.
	store := ststore.New(100, 3600)
	ids := store.IngestDataset(ds)
	fmt.Printf("ingested %d trajectories, %d GPS fixes\n", store.Len(), store.Points())

	// 2. Spatio-temporal query: who passed through this block this morning?
	block := geo.NewRect(geo.Point{X: 200, Y: 100}, geo.Point{X: 500, Y: 400})
	day0 := ds.Trips[0].StartT
	couriers := store.VisitingCouriers(block, day0, day0+6*3600)
	fmt.Printf("couriers in the 300x300 m block during the first morning: %v\n", couriers)

	// 3. Archive compression: Douglas-Peucker at 5 m tolerance.
	var before, after int
	for _, id := range ids[:10] {
		tr, _ := store.Trajectory(id)
		before += len(tr)
		after += len(Simplify(tr, 5))
	}
	fmt.Printf("archival compression on 10 trips: %d -> %d points (%.0f%%)\n",
		before, after, 100*float64(after)/float64(before))

	// 4. Incremental pool maintenance: feed trips to the builder in weekly
	//    windows, exactly as the deployed bi-weekly job would — extract each
	//    window's stay points, queue them, and seal the window.
	ctx := context.Background()
	cfg := core.DefaultConfig()
	builder := core.NewIncrementalPoolBuilder(cfg)
	flushed := 0
	err = core.ForEachWindow(ds.Trips, 7*86400, func(batch []model.Trip) error {
		stays, err := core.ExtractAllStayPoints(ctx, &model.Dataset{Trips: batch}, cfg)
		if err != nil {
			return err
		}
		for i := range batch {
			builder.AppendTripStays(batch[i].Courier, stays[i])
		}
		if err := builder.SealWindow(ctx); err != nil {
			return err
		}
		flushed++
		fmt.Printf("  window %d: pool now has %d locations\n",
			flushed, len(builder.Finalize().Locations))
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	pool := builder.Finalize()
	fmt.Printf("final pool: %d location candidates\n", len(pool.Locations))

	// 5. The pipeline consumes the incrementally built pool directly.
	pipe := core.NewPipelineWithPool(ds, cfg, pool)
	total, withCands := 0, 0
	for _, a := range ds.Addresses {
		total++
		if len(pipe.RetrieveCandidates(a.ID)) > 0 {
			withCands++
		}
	}
	fmt.Printf("candidate retrieval covers %d/%d addresses\n", withCands, total)
}
