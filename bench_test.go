package dlinfma

// One benchmark per table and figure of the paper's evaluation section,
// plus the Section V-F cost measurements and the ablation benches called
// out in DESIGN.md. Benchmarks print the regenerated rows/series on their
// first iteration, so `go test -bench=. -benchmem` both measures cost and
// reproduces the artefacts. Heavy benches run on the Tiny profile; substrate
// micro-benches use the full DowBJ profile.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlinfma/internal/baselines"
	"dlinfma/internal/core"
	"dlinfma/internal/deploy"
	"dlinfma/internal/engine"
	"dlinfma/internal/eval"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/obs/trace"
	"dlinfma/internal/shard"
	"dlinfma/internal/synth"
	"dlinfma/internal/traj"
	"dlinfma/internal/wal"
)

var benchState struct {
	onceTiny  sync.Once
	tiny      *eval.Prepared
	onceDow   sync.Once
	dow       *model.Dataset
	dowWorld  *synth.World
	dowPipe   *core.Pipeline
	onceTrain sync.Once
	samples   []*core.Sample
}

func tinyPrepared(b *testing.B) *eval.Prepared {
	b.Helper()
	benchState.onceTiny.Do(func() {
		p, err := eval.Prepare(context.Background(), synth.Tiny(), core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		benchState.tiny = p
	})
	return benchState.tiny
}

func dowDataset(b *testing.B) (*model.Dataset, *synth.World) {
	b.Helper()
	benchState.onceDow.Do(func() {
		ds, w, err := synth.Generate(synth.DowBJ())
		if err != nil {
			b.Fatal(err)
		}
		benchState.dow, benchState.dowWorld = ds, w
	})
	return benchState.dow, benchState.dowWorld
}

func dowPipeline(b *testing.B) *core.Pipeline {
	b.Helper()
	ds, _ := dowDataset(b)
	if benchState.dowPipe == nil {
		pipe, err := core.NewPipeline(context.Background(), ds, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		benchState.dowPipe = pipe
	}
	return benchState.dowPipe
}

func tinySamples(b *testing.B) []*core.Sample {
	b.Helper()
	p := tinyPrepared(b)
	benchState.onceTrain.Do(func() {
		ids := make([]model.AddressID, len(p.DS.Addresses))
		for i, a := range p.DS.Addresses {
			ids[i] = a.ID
		}
		ss := p.Env.Pipe.BuildSamples(ids, core.DefaultSampleOptions())
		core.LabelSamples(ss, p.DS.Truth)
		benchState.samples = ss
	})
	return benchState.samples
}

var printedArtefacts sync.Map

// out returns os.Stdout exactly once per benchmark (the framework reruns
// the loop body with growing b.N, so iteration index alone is not enough)
// and io.Discard afterwards, so each artefact prints a single time.
func out(name string) io.Writer {
	if _, loaded := printedArtefacts.LoadOrStore(name, true); !loaded {
		return os.Stdout
	}
	return io.Discard
}

// BenchmarkTable1DatasetStats regenerates Table I.
func BenchmarkTable1DatasetStats(b *testing.B) {
	p := tinyPrepared(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.RenderTable1(out(b.Name()), []eval.Table1Row{eval.Table1(p)})
	}
}

// BenchmarkFig9Distributions regenerates the four Figure 9 distributions.
func BenchmarkFig9Distributions(b *testing.B) {
	p := tinyPrepared(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.RenderFig9(out(b.Name()), p.Profile.Name, eval.Fig9(p))
	}
}

// BenchmarkTable2Overall regenerates Table II (baselines; variants are
// covered by cmd/experiments -variants).
func BenchmarkTable2Overall(b *testing.B) {
	p := tinyPrepared(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.RenderMethodTable(out(b.Name()), "Table II ("+p.Profile.Name+")", eval.Table2(context.Background(), p, false))
	}
}

// BenchmarkFig10aClusteringDistance regenerates the Figure 10(a) sweep.
func BenchmarkFig10aClusteringDistance(b *testing.B) {
	p := tinyPrepared(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.RenderFig10a(out(b.Name()), p.Profile.Name, eval.Fig10a(context.Background(), p, []float64{20, 40, 60}))
	}
}

// BenchmarkFig10bDeliveryGroups regenerates Figure 10(b).
func BenchmarkFig10bDeliveryGroups(b *testing.B) {
	p := tinyPrepared(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.RenderFig10b(out(b.Name()), p.Profile.Name, eval.Fig10b(context.Background(), p))
	}
}

// BenchmarkTable3SyntheticDelays regenerates Table III at one delay level
// per iteration set (the full sweep runs in cmd/experiments).
func BenchmarkTable3SyntheticDelays(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.Table3(context.Background(), synth.Tiny(), []float64{0.6}, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		eval.RenderTable3(out(b.Name()), "Tiny", res)
	}
}

// BenchmarkFig13InferenceScalability regenerates Figure 13.
func BenchmarkFig13InferenceScalability(b *testing.B) {
	p := tinyPrepared(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.RenderFig13(out(b.Name()), p.Profile.Name, eval.Fig13(context.Background(), p, []int{1000, 2000}))
	}
}

// BenchmarkStayPointExtraction measures Section V-F's first pipeline stage
// over the full DowBJ trajectories.
func BenchmarkStayPointExtraction(b *testing.B) {
	ds, _ := dowDataset(b)
	cfg := core.DefaultConfig()
	pts := ds.TrajectoryPoints()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExtractAllStayPoints(context.Background(), ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pts), "gps_points")
}

// BenchmarkCandidatePool measures Section V-F's bi-weekly pool construction.
func BenchmarkCandidatePool(b *testing.B) {
	ds, _ := dowDataset(b)
	cfg := core.DefaultConfig()
	b.ResetTimer()
	var pool *core.Pool
	for i := 0; i < b.N; i++ {
		var err error
		if pool, err = core.BuildPool(context.Background(), ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pool.Locations)), "locations")
}

// BenchmarkTrainingTimeLocMatcher measures DLInfMA's model training
// (Section V-F training-time comparison).
func BenchmarkTrainingTimeLocMatcher(b *testing.B) {
	ss := tinySamples(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewLocMatcher(eval.ExperimentLocMatcherConfig())
		if _, err := m.Fit(context.Background(), ss, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainingTimeGeoRank measures GeoRank's training — the fastest of
// the supervised methods in the paper.
func BenchmarkTrainingTimeGeoRank(b *testing.B) {
	p := tinyPrepared(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := &baselines.GeoRank{}
		if err := g.Fit(context.Background(), p.Env, p.Split.Train, p.Split.Val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainingTimeUNet measures the UNet baseline's training — the
// slowest in the paper's comparison.
func BenchmarkTrainingTimeUNet(b *testing.B) {
	p := tinyPrepared(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := &baselines.UNetBased{}
		if err := u.Fit(context.Background(), p.Env, p.Split.Train, p.Split.Val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocMatcherInference measures single-address inference latency
// (the paper reports DLInfMA infers 1K addresses/s).
func BenchmarkLocMatcherInference(b *testing.B) {
	ss := tinySamples(b)
	m := core.NewLocMatcher(core.DefaultLocMatcherConfig())
	cfg := m.Cfg
	cfg.MaxEpochs = 2
	m = core.NewLocMatcher(cfg)
	if _, err := m.Fit(context.Background(), ss, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(ss[i%len(ss)])
	}
}

// BenchmarkFitParallel measures one LocMatcher training epoch at several
// worker counts (Workers=1 is the serial reference path; higher counts train
// each batch's samples on replica parameters). Allocation counts show the
// tape arena's effect: graph storage is recycled sample to sample. cpu-ns/op
// is the process's CPU time per epoch, garbage collection included: what
// make bench-regress gates, since on a shared machine the wall time also
// counts the time the machine ran something else.
func BenchmarkFitParallel(b *testing.B) {
	ss := tinySamples(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			cpu0, ok := processCPU()
			for i := 0; i < b.N; i++ {
				cfg := eval.ExperimentLocMatcherConfig()
				cfg.MaxEpochs = 1
				cfg.Patience = 1
				cfg.Workers = workers
				m := core.NewLocMatcher(cfg)
				if _, err := m.Fit(context.Background(), ss, nil); err != nil {
					b.Fatal(err)
				}
			}
			if cpu1, ok1 := processCPU(); ok && ok1 {
				b.ReportMetric(float64(cpu1-cpu0)/float64(b.N), "cpu-ns/op")
			}
		})
	}
}

// BenchmarkPredictBatch measures batch inference over every tiny-profile
// sample at several worker counts (PredictAll's fan-out).
func BenchmarkPredictBatch(b *testing.B) {
	ss := tinySamples(b)
	cfg := core.DefaultLocMatcherConfig()
	cfg.MaxEpochs = 2
	m := core.NewLocMatcher(cfg)
	if _, err := m.Fit(context.Background(), ss, nil); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			m.Cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := m.PredictAll(context.Background(), ss); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCandidateRetrieval measures Section III-C retrieval on DowBJ.
func BenchmarkCandidateRetrieval(b *testing.B) {
	pipe := dowPipeline(b)
	ds, _ := dowDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.RetrieveCandidates(ds.Addresses[i%len(ds.Addresses)].ID)
	}
}

// BenchmarkFeatureExtraction measures full per-address featurization.
func BenchmarkFeatureExtraction(b *testing.B) {
	pipe := dowPipeline(b)
	ds, _ := dowDataset(b)
	opt := core.DefaultSampleOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.BuildSample(ds.Addresses[i%len(ds.Addresses)].ID, opt)
	}
}

// BenchmarkAblationTemporalFilter compares labeled-candidate quality with
// and without the recorded-time upper bound of Section III-C: the filter
// should shrink candidate sets without losing the true location.
func BenchmarkAblationTemporalFilter(b *testing.B) {
	p := tinyPrepared(b)
	ids := make([]model.AddressID, len(p.DS.Addresses))
	for i, a := range p.DS.Addresses {
		ids[i] = a.ID
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with := p.Env.Pipe.BuildSamples(ids, core.DefaultSampleOptions())
		opt := core.DefaultSampleOptions()
		opt.NoTemporalFilter = true
		without := p.Env.Pipe.BuildSamples(ids, opt)
		if i == 0 {
			nWith, nWithout := 0, 0
			for _, s := range with {
				nWith += len(s.Cands)
			}
			for _, s := range without {
				nWithout += len(s.Cands)
			}
			b.Logf("temporal filter: %.1f vs %.1f candidates/address",
				float64(nWith)/float64(len(with)), float64(nWithout)/float64(len(without)))
		}
	}
}

// BenchmarkDelayInjection measures the Table III synthetic-delay generator.
func BenchmarkDelayInjection(b *testing.B) {
	ds, _ := dowDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		synth.InjectDelays(ds, 0.6, 2, int64(i))
	}
}

// BenchmarkExtractStayPoints measures one trip's stay-point extraction,
// noise filter and detector in one pass, on one long trajectory.
func BenchmarkExtractStayPoints(b *testing.B) {
	ds, _ := dowDataset(b)
	tr := ds.Trips[0].Traj
	nf, sp := traj.DefaultNoiseFilter(), traj.DefaultStayPointConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traj.ExtractStayPoints(tr, nf, sp)
	}
}

// BenchmarkExtensionBuildingFallback measures the building-level fallback
// experiment (the paper's Section II note that DLInfMA adapts to building
// granularity, realized through the deployed store's query chain).
func BenchmarkExtensionBuildingFallback(b *testing.B) {
	p := tinyPrepared(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := eval.BuildingFallback(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		eval.RenderBuildingFallback(out(b.Name()), p.Profile.Name, r)
	}
}

// BenchmarkAblationStayThresholds sweeps the stay-point thresholds of
// Section III-A, reporting pool size, labelling ceiling, and the heuristic
// selector's MAE per configuration.
func BenchmarkAblationStayThresholds(b *testing.B) {
	p := tinyPrepared(b)
	configs := []traj.StayPointConfig{
		{DMax: 10, TMin: 30},
		{DMax: 20, TMin: 30}, // the paper's setting
		{DMax: 40, TMin: 30},
		{DMax: 20, TMin: 60},
		{DMax: 20, TMin: 120},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.RenderStaySweep(out(b.Name()), p.Profile.Name, eval.StaySweep(context.Background(), p, configs))
	}
}

// BenchmarkServeQueries measures the engine-backed HTTP service's query
// throughput under concurrent load (the Section V-F deployment: one query
// per dispatched waybill) across shard counts. Every engine serves a
// restored store-only state — shards=1 restores the version-1 snapshot
// directly, the multi-shard runs split the same document through the
// geohash router — so the benchmark isolates the serving/routing path from
// training cost.
func BenchmarkServeQueries(b *testing.B) {
	p := tinyPrepared(b)
	doc := storeSnapshotDoc(b, p)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			runServeQueries(b, shards, doc, p.DS.Addresses, deploy.Options{})
		})
	}
}

// BenchmarkServeQueriesTraced is BenchmarkServeQueries with request tracing
// on at 100% head sampling — the worst-case tracing overhead (target: <5%
// over the untraced shards=1 row). Every query mints a root span, records
// its attributes, and publishes the trace into the ring buffer.
func BenchmarkServeQueriesTraced(b *testing.B) {
	p := tinyPrepared(b)
	doc := storeSnapshotDoc(b, p)
	b.Run("shards=1", func(b *testing.B) {
		tracer := trace.NewTracer(trace.Options{SampleProb: 1, Store: trace.NewStore(256)})
		runServeQueries(b, 1, doc, p.DS.Addresses, deploy.Options{Tracer: tracer})
	})
}

// benchClient returns an HTTP client tuned for a parallel benchmark load:
// enough pooled keep-alive connections that concurrent client goroutines
// measure the serving path, not connection churn.
func benchClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
	}}
}

// BenchmarkServeQueriesParallel is the parallel-client variant of
// BenchmarkServeQueries: several client goroutines per core over a pooled
// keep-alive transport, all hammering single-key lookups. With the lock-free
// frozen-store read path, throughput must not decay as shards are added —
// its shards=1 row is one of the five `make bench-regress` compares with the
// parent commit's.
func BenchmarkServeQueriesParallel(b *testing.B) {
	p := tinyPrepared(b)
	doc := storeSnapshotDoc(b, p)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.SetParallelism(4)
			runServeQueriesClient(b, shards, doc, p.DS.Addresses, deploy.Options{}, benchClient())
		})
	}
}

// BenchmarkServeQueriesBatch measures the bulk read path: every request is a
// POST /v1/locations:batch resolving batchKeys addresses through the
// scatter/gather fan-out, so the reported queries/sec counts keys, not HTTP
// round trips. This is the path where sharding pays: per-request work splits
// across shard workers instead of adding routing cost per key.
func BenchmarkServeQueriesBatch(b *testing.B) {
	const batchKeys = 512
	p := tinyPrepared(b)
	doc := storeSnapshotDoc(b, p)
	addrs := p.DS.Addresses
	// Pre-marshal a few rotated request bodies so the client side costs one
	// bytes.Reader per request.
	bodies := make([][]byte, 8)
	for r := range bodies {
		req := struct {
			Addrs []int64 `json:"addrs"`
		}{Addrs: make([]int64, batchKeys)}
		for i := range req.Addrs {
			req.Addrs[i] = int64(addrs[(r*batchKeys+i)%len(addrs)].ID)
		}
		doc, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies[r] = doc
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := benchEngine(b, shards, doc)
			defer e.Close()
			srv := httptest.NewServer(deploy.NewService(e, deploy.Options{}))
			defer srv.Close()
			client := benchClient()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					resp, err := client.Post(srv.URL+"/v1/locations:batch", "application/json",
						bytes.NewReader(bodies[i%len(bodies)]))
					if err != nil {
						b.Error(err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Errorf("status %d", resp.StatusCode)
						return
					}
					i++
				}
			})
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)*batchKeys/sec, "queries/sec")
			}
		})
	}
}

// BenchmarkServeStreamIngest measures the streaming write path end to end in
// one process: parallel clients each POST one DowBJ trip (about 310 fixes and
// an end marker, one NDJSON body, a courier id of its own) to
// /v1/trajectories:stream of a two-shard engine logging to a WAL in
// b.TempDir() under FsyncInterval — the configuration the repository
// benchmark's stream_ingest workload runs as a real process. The reported
// fixes/sec counts GPS fixes, not requests.
func BenchmarkServeStreamIngest(b *testing.B) {
	ds, _ := dowDataset(b)
	bodies := make([][]byte, len(ds.Trips))
	fixes := make([]int, len(ds.Trips))
	for i, tr := range ds.Trips {
		var body []byte
		for _, pt := range tr.Traj {
			body = fmt.Appendf(body, "{\"courier\":%d,\"x\":%.2f,\"y\":%.2f,\"t\":%.3f}\n", i+1, pt.P.X, pt.P.Y, pt.T)
		}
		bodies[i] = fmt.Appendf(body, "{\"courier\":%d,\"end\":true}\n", i+1)
		fixes[i] = len(tr.Traj)
	}
	b.Run("shards=2", func(b *testing.B) {
		r, err := shard.NewRouter(2, 8)
		if err != nil {
			b.Fatal(err)
		}
		e := engine.NewSharded(engine.DefaultConfig(), r)
		defer e.Close()
		w, err := wal.Open(b.TempDir(), wal.Options{Policy: wal.FsyncInterval})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		e.AttachWAL(w)
		srv := httptest.NewServer(deploy.NewService(e, deploy.Options{}))
		defer srv.Close()
		client := benchClient()
		var next, streamed atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				// In-flight requests are far fewer than trips, so no two
				// clients ever stream the same courier at once.
				i := int(next.Add(1)-1) % len(bodies)
				resp, err := client.Post(srv.URL+"/v1/trajectories:stream", "application/x-ndjson", bytes.NewReader(bodies[i]))
				if err != nil {
					b.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
					return
				}
				streamed.Add(int64(fixes[i]))
			}
		})
		b.StopTimer()
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(streamed.Load())/sec, "fixes/sec")
		}
	})
}

// BenchmarkReplayWAL is a restart of the streaming write path: the WAL of
// every DowBJ trip streamed as fixes and an end marker (a courier id per
// trip) into a two-shard engine, replayed into a fresh two-shard engine —
// stream extraction, routing and every pool-window seal included, the last
// one too (ReplayWAL returns with every window sealed). The reported
// ns/record is wall time per WAL record; cpu-ns/record is the process's CPU
// time per record, so a replay made faster by clustering beside it on
// another core shows what the overlap costs in CPU.
func BenchmarkReplayWAL(b *testing.B) {
	ctx := context.Background()
	ds, _ := dowDataset(b)
	engineFor := func() *engine.Engine {
		r, err := shard.NewRouter(2, 8)
		if err != nil {
			b.Fatal(err)
		}
		return engine.NewSharded(engine.DefaultConfig(), r)
	}
	dir := b.TempDir()
	w, err := wal.Open(dir, wal.Options{Policy: wal.FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	src := engineFor()
	src.AttachWAL(w)
	var ops []deploy.StreamOp
	for i, tr := range ds.Trips {
		ops = ops[:0]
		for _, pt := range tr.Traj {
			ops = append(ops, deploy.StreamOp{Courier: model.CourierID(i + 1), Pt: pt})
		}
		ops = append(ops, deploy.StreamOp{Courier: model.CourierID(i + 1), End: true})
		if _, err := src.IngestBurst(ctx, ops); err != nil {
			b.Fatal(err)
		}
	}
	src.Close()
	records := int(w.LastSeq())
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if w, err = wal.Open(dir, wal.Options{Policy: wal.FsyncNever}); err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.ReportAllocs()
	b.ResetTimer()
	cpu0, ok := processCPU()
	for i := 0; i < b.N; i++ {
		e := engineFor()
		n, err := e.ReplayWAL(ctx, w)
		if err != nil || n != records {
			b.Fatalf("replayed %d of %d records: %v", n, records, err)
		}
		b.StopTimer()
		e.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
	if cpu1, ok1 := processCPU(); ok && ok1 {
		b.ReportMetric(float64(cpu1-cpu0)/float64(b.N*records), "cpu-ns/record")
	}
}

// BenchmarkPoolSealGrowth seals 50 windows into one pool builder and reports
// the wall time of the first seal and of the fiftieth. Each window brings
// 1,000 stay points: five visits (3 m of jitter) to each of 200 locations in
// a 20 km square — after the first window, 100 seen in earlier windows and
// 100 new — so the pool grows by about 100 candidates a window. A seal that costs its window, not
// the pool's history, reads the same at both. B/location is the heap the
// builder holds after the fiftieth seal (HeapAlloc after a GC with the
// builder live, less HeapAlloc after a GC before it was made) over its alive
// locations: the 50,000 stays' visits, the alive profiles and what the
// merged-away centroids keep.
func BenchmarkPoolSealGrowth(b *testing.B) {
	const windows, perWindow, visits = 50, 100, 5
	rng := rand.New(rand.NewSource(1))
	var sites []geo.Point
	stays := make([][][]traj.StayPoint, windows) // window → trip → stays
	for w := range stays {
		var locs []geo.Point
		for i := 0; i < perWindow && len(sites) > 0; i++ {
			locs = append(locs, sites[rng.Intn(len(sites))])
		}
		for len(locs) < 2*perWindow {
			p := geo.Point{X: rng.Float64() * 20_000, Y: rng.Float64() * 20_000}
			sites = append(sites, p)
			locs = append(locs, p)
		}
		t0 := float64(w) * core.DefaultPoolWindowSeconds
		for v := 0; v < visits; v++ {
			trip := make([]traj.StayPoint, len(locs))
			for i, p := range locs {
				at := t0 + float64(v*len(locs)+i)*60
				trip[i] = traj.StayPoint{
					Loc:     geo.Point{X: p.X + rng.NormFloat64()*3, Y: p.Y + rng.NormFloat64()*3},
					ArriveT: at, LeaveT: at + 45, NPoints: 5,
				}
			}
			stays[w] = append(stays[w], trip)
		}
	}
	ctx := context.Background()
	var first, last time.Duration
	var before uint64
	var ms runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i == b.N-1 {
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before = ms.HeapAlloc
			b.StartTimer()
		}
		pb := core.NewIncrementalPoolBuilder(core.DefaultConfig())
		for w, trips := range stays {
			for c, tr := range trips {
				// The builder owns what it is handed.
				pb.AppendTripStays(model.CourierID(c), slices.Clone(tr))
			}
			start := time.Now()
			if err := pb.SealWindow(ctx); err != nil {
				b.Fatal(err)
			}
			switch w {
			case 0:
				first += time.Since(start)
			case windows - 1:
				last += time.Since(start)
			}
		}
		if i == b.N-1 {
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			held := float64(ms.HeapAlloc) - float64(before)
			b.ReportMetric(held/float64(len(pb.Finalize().Locations)), "B/location")
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(first.Nanoseconds())/float64(b.N), "ns/seal-w1")
	b.ReportMetric(float64(last.Nanoseconds())/float64(b.N), "ns/seal-w50")
}

// BenchmarkRestoreSnapshot is a replica's boot: cityDoc's 200,000-address
// store restored into a fresh one-shard engine.
func BenchmarkRestoreSnapshot(b *testing.B) {
	doc, n, located := cityDoc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := engine.New(engine.DefaultConfig())
		if err := e.RestoreSnapshot(bytes.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
		if st := e.Status(); st.Addresses != n || st.Inferred != located {
			b.Fatalf("restored %d addresses, %d inferred", st.Addresses, st.Inferred)
		}
		e.Close()
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "addrs/s")
}

// BenchmarkBatchHandler is the batch route in this process with no socket:
// cityDoc's store restored into a one-shard engine, deploy.NewService over
// it, 512 uniform keys a request, a writer that keeps nothing — the shape of
// the benchmark ladder's deploy.batch_handler_ns_per_key. Its coordinates are
// centimetres, as a geocoder or a GPS fix carries them, so all but the few
// below 1 m take the response codec's exact printer; BenchmarkServeQueriesBatch
// serves Tiny's full-precision truth, which the printer mostly declines.
func BenchmarkBatchHandler(b *testing.B) {
	const batchKeys = 512
	doc, n, _ := cityDoc(b)
	e := engine.New(engine.DefaultConfig())
	defer e.Close()
	if err := e.RestoreSnapshot(bytes.NewReader(doc)); err != nil {
		b.Fatal(err)
	}
	doc = nil
	svc := deploy.NewService(e, deploy.Options{})
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, 8)
	for r := range bodies {
		keys := make([]int64, batchKeys)
		for i := range keys {
			keys[i] = int64(rng.Intn(n))
		}
		var err error
		if bodies[r], err = json.Marshal(map[string][]int64{"addrs": keys}); err != nil {
			b.Fatal(err)
		}
	}
	rd := bytes.NewReader(bodies[0])
	req := httptest.NewRequest(http.MethodPost, "/v1/locations:batch", nil)
	req.Body = io.NopCloser(rd)
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(bodies[i%len(bodies)])
		clear(w.h)
		svc.ServeHTTP(w, req)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchKeys), "ns/key")
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// cityDoc is the version-1 document of a 200,000-address store — the city of
// the benchmark harness's lookup workloads (buildings of eight; 90 % of the
// addresses located, 5 % answered by their building, 5 % by their geocode;
// every coordinate rounded to the centimetre), marshalled as the harness
// marshals it — with its address count and how many of them are located.
func cityDoc(b *testing.B) (doc []byte, addrs, located int) {
	b.Helper()
	const n = 200_000
	rng := rand.New(rand.NewSource(1))
	cm := func(v float64) float64 { return math.Round(v*100) / 100 }
	near := func(p geo.Point, sd float64) geo.Point {
		return geo.Point{X: cm(p.X + rng.NormFloat64()*sd), Y: cm(p.Y + rng.NormFloat64()*sd)}
	}
	sn := struct {
		Version   int                   `json:"version"`
		Name      string                `json:"name"`
		Addresses []model.AddressInfo   `json:"addresses"`
		Locations map[string][2]float64 `json:"locations"`
	}{Version: 1, Name: "city", Addresses: make([]model.AddressInfo, n), Locations: make(map[string][2]float64, n)}
	for bld := 0; bld*8 < n; bld++ {
		centre := geo.Point{X: cm(rng.Float64() * 20_000), Y: cm(rng.Float64() * 20_000)}
		locker := geo.Point{X: cm(centre.X + 30), Y: cm(centre.Y - 20)}
		for slot := 0; slot < 8 && bld*8+slot < n; slot++ {
			id := bld*8 + slot
			sn.Addresses[id] = model.AddressInfo{ID: model.AddressID(id), Building: model.BuildingID(bld), Geocode: near(centre, 25)}
			if bld%20 == 0 || bld%20 <= 8 && slot == 7 {
				continue // answered by the geocode, or by the building's majority
			}
			loc := locker
			if slot >= 2 {
				loc = near(centre, 8)
			}
			sn.Locations[strconv.Itoa(id)] = [2]float64{loc.X, loc.Y}
		}
	}
	doc, err := json.Marshal(&sn)
	if err != nil {
		b.Fatal(err)
	}
	return doc, n, len(sn.Locations)
}

// storeSnapshotDoc builds the store-only snapshot document both serve
// benchmarks restore: ground-truth locations for every tiny-profile address.
func storeSnapshotDoc(b *testing.B, p *eval.Prepared) []byte {
	b.Helper()
	sn := struct {
		Version   int                   `json:"version"`
		Name      string                `json:"name"`
		Addresses []model.AddressInfo   `json:"addresses"`
		Locations map[string][2]float64 `json:"locations"`
	}{Version: 1, Name: "bench", Addresses: p.DS.Addresses, Locations: map[string][2]float64{}}
	for id, pt := range p.DS.Truth {
		sn.Locations[fmt.Sprint(id)] = [2]float64{pt.X, pt.Y}
	}
	doc, err := json.Marshal(sn)
	if err != nil {
		b.Fatal(err)
	}
	return doc
}

// benchEngine restores the snapshot into a fresh engine of the given shard
// count.
func benchEngine(b *testing.B, shards int, doc []byte) *engine.Engine {
	b.Helper()
	r, err := shard.NewRouter(shards, 8)
	if err != nil {
		b.Fatal(err)
	}
	e := engine.NewSharded(engine.DefaultConfig(), r)
	if err := e.RestoreSnapshot(bytes.NewReader(doc)); err != nil {
		b.Fatal(err)
	}
	return e
}

// runServeQueries restores the snapshot into a fresh engine of the given
// shard count and drives concurrent GET /v1/locations/{key} queries through an
// httptest server built with opts, using the default HTTP client (the
// long-standing baseline configuration).
func runServeQueries(b *testing.B, shards int, doc []byte, addrs []model.AddressInfo, opts deploy.Options) {
	b.Helper()
	runServeQueriesClient(b, shards, doc, addrs, opts, http.DefaultClient)
}

// runServeQueriesClient is runServeQueries with a caller-supplied client, so
// the parallel-client variant can bring a pooled keep-alive transport.
func runServeQueriesClient(b *testing.B, shards int, doc []byte, addrs []model.AddressInfo, opts deploy.Options, client *http.Client) {
	b.Helper()
	e := benchEngine(b, shards, doc)
	defer e.Close()
	srv := httptest.NewServer(deploy.NewService(e, opts))
	defer srv.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			resp, err := client.Get(fmt.Sprintf("%s/v1/locations/%d", srv.URL, addrs[i%len(addrs)].ID))
			if err != nil {
				b.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
			i++
		}
	})
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "queries/sec")
	}
}
