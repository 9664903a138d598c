// Package ladder times calls into each module's public functions, in this
// process, on fixed inputs: one rung per layer a request, a streamed fix or
// a re-inference passes through. The rungs say where an end-to-end number
// comes from and which of them a change to one layer can move; bench/README
// has the table. Layer names are the repository's package names.
package ladder

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"dlinfma/bench/internal/gen"
	"dlinfma/bench/internal/httpc"
	"dlinfma/bench/internal/stats"
	"dlinfma/internal/core"
	"dlinfma/internal/deploy"
	"dlinfma/internal/engine"
	"dlinfma/internal/eval"
	"dlinfma/internal/model"
	"dlinfma/internal/obs"
	"dlinfma/internal/obs/trace"
	"dlinfma/internal/shard"
	"dlinfma/internal/synth"
	"dlinfma/internal/traj"
	"dlinfma/internal/wal"
)

// budget is the measured time per batch of a micro rung; three batches are
// run and the median kept.
const budget = 40 * time.Millisecond

// rung is one measured call: time and allocations per operation.
type rung struct {
	total  time.Duration
	n      int
	allocs float64
}

// measure calls op for about three budgets and returns the median batch.
// Allocations are the process's, so a rung that runs a server in this
// process counts both ends.
func measure(op func()) rung {
	op() // warm: first-call pools, lazily built tables
	start := time.Now()
	op()
	n := int(budget / max(time.Since(start), time.Nanosecond))
	n = min(max(n, 1), 5_000_000)
	var batches []rung
	var ms runtime.MemStats
	for b := 0; b < 3; b++ {
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		total := time.Since(start)
		runtime.ReadMemStats(&ms)
		batches = append(batches, rung{total: total, n: n, allocs: float64(ms.Mallocs-mallocs) / float64(n)})
	}
	sort.Slice(batches, func(i, j int) bool { return batches[i].total < batches[j].total })
	return batches[1]
}

func (r rung) ns(name string) stats.Metric      { return stats.Per(name, r.total, r.n) }
func (r rung) allocsM(name string) stats.Metric { return stats.Num(name, r.allocs) }

// timed runs a one-shot stage once.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// serveOptions are the deploy options cmd/dlinfma serve runs with: an
// info-level logger and the default tracer, both on the request path.
func serveOptions() (deploy.Options, *obs.Logger, *trace.Tracer) {
	log := obs.NewLogger(io.Discard, obs.LevelInfo, obs.FormatLogfmt)
	tracer := trace.NewTracer(trace.Options{SampleProb: 0.1, SlowThreshold: time.Second, Store: trace.NewStore(256)})
	return deploy.Options{Logger: log, Tracer: tracer}, log, tracer
}

// engineConfig is the engine configuration cmd/dlinfma assembles.
func engineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Matcher = eval.ExperimentLocMatcherConfig()
	return cfg
}

// sink is a ResponseWriter that keeps nothing.
type sink struct{ h http.Header }

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) Write(b []byte) (int, error) { return len(b), nil }
func (s *sink) WriteHeader(int)             {}

// body is a request body that is rewound, not reallocated, between calls.
type body struct{ bytes.Reader }

func (*body) Close() error { return nil }

// countWriter counts what a snapshot writes.
type countWriter struct{ n int64 }

func (c *countWriter) Write(b []byte) (int, error) { c.n += int64(len(b)); return len(b), nil }

// noIngest is an engine whose streaming ingest does nothing, so the stream
// handler's own cost (scan, decode, dispatch) is what remains.
type noIngest struct{ deploy.Engine }

func (noIngest) IngestPoint(context.Context, model.CourierID, traj.GPSPoint) error { return nil }
func (noIngest) CloseStream(context.Context, model.CourierID) error                { return nil }

// Run climbs the ladder. tmp is a scratch directory inside the checkout.
func Run(tmp string) ([]stats.Metric, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	var out []stats.Metric
	for _, part := range []func(string) ([]stats.Metric, error){readPath, writePath, refreshPath} {
		ms, err := part(tmp)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// readPath: one lookup from the frozen map up to a real TCP round trip, on
// the city-scale store of the lookup workloads. The garbage collector's
// cost per allocation grows with the live heap, so each group of rungs
// keeps alive only what the server would: the groups are functions of their
// own and the heap is collected between them.
func readPath(string) ([]stats.Metric, error) {
	var out []stats.Metric
	for _, group := range []func() ([]stats.Metric, error){middlewareRungs, storeRungs, engineRungs, shardedRungs} {
		runtime.GC()
		ms, err := group()
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// uniformKeys draws keys over the whole store, so the working set is far
// larger than the processor's caches.
func uniformKeys(n int) func() model.AddressID {
	rng := rand.New(rand.NewSource(1))
	keys := make([]model.AddressID, 1<<16)
	for i := range keys {
		keys[i] = model.AddressID(rng.Intn(n))
	}
	i := 0
	return func() model.AddressID { i++; return keys[i&(len(keys)-1)] }
}

// middlewareRungs need no store: the request-scoped middleware over a
// handler that does nothing, and one histogram observation.
func middlewareRungs() ([]stats.Metric, error) {
	_, log, tracer := serveOptions()
	w := &sink{h: http.Header{}}
	req, _ := http.NewRequest(http.MethodGet, "/bench", nil)
	noop := deploy.Instrument("/bench", log, tracer, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	instrument := measure(func() { clear(w.h); noop.ServeHTTP(w, req) })
	hdr := obs.NewHDRHistogram()
	hdrRecord := measure(func() { hdr.Record(73 * time.Microsecond) })
	return []stats.Metric{
		instrument.ns("deploy.instrument_ns"),
		instrument.allocsM("deploy.instrument_allocs"),
		hdrRecord.ns("obs.hdr_record_ns"),
	}, nil
}

// storeRungs: the mutable store frozen into its read-only form.
func storeRungs() ([]stats.Metric, error) {
	city := gen.NewCity(1, gen.CityAddresses)
	nextKey := uniformKeys(len(city.Addresses))
	store := deploy.NewStore()
	for _, a := range city.Addresses {
		store.RegisterAddress(a.ID, a.Building, a.Geocode)
	}
	for id, p := range city.Locations {
		store.Put(id, p)
	}
	var frozen *deploy.FrozenStore
	freeze, _ := timed(func() error { frozen = store.Freeze(); return nil })
	frozenQuery := measure(func() { frozen.Query(nextKey()) })
	diff, _ := timed(func() error { deploy.DiffFrozen(frozen, frozen, 0.5, nil); return nil })
	return []stats.Metric{
		frozenQuery.ns("deploy.frozen_query_ns"),
		stats.Dur("deploy.freeze_ms", freeze),
		stats.Dur("deploy.diff_frozen_ms", diff),
	}, nil
}

// engineRungs: the engine restored from the city snapshot, then the deploy
// handlers over it, then a real loopback connection to them.
func engineRungs() ([]stats.Metric, error) {
	ctx := context.Background()
	city := gen.NewCity(1, gen.CityAddresses)
	n := len(city.Addresses)
	nextKey := uniformKeys(n)
	batches := gen.Batches(1, 8, city)
	doc := city.Doc()
	city = nil

	e := engine.New(engineConfig())
	defer e.Close()
	restore, err := timed(func() error { return e.RestoreSnapshot(bytes.NewReader(doc)) })
	if err != nil {
		return nil, err
	}
	doc = nil
	var written countWriter
	write, err := timed(func() error { return e.WriteSnapshot(&written) })
	if err != nil {
		return nil, err
	}
	runtime.GC()
	query := measure(func() { e.Query(nextKey()) })
	ids := make([]model.AddressID, gen.BatchKeys)
	var answers []deploy.BatchAnswer
	queryBatch := measure(func() {
		for j := range ids {
			ids[j] = nextKey()
		}
		answers, _ = e.QueryBatch(ctx, ids, answers)
	})

	opts, _, _ := serveOptions()
	svc := deploy.NewService(e, opts)
	w := &sink{h: http.Header{}}
	gets := make([]*http.Request, 256)
	for j := range gets {
		gets[j], _ = http.NewRequest(http.MethodGet, "/v1/locations/"+strconv.Itoa(int(nextKey())), nil)
	}
	g := 0
	lookupHandler := measure(func() {
		g++
		clear(w.h)
		svc.ServeHTTP(w, gets[g&(len(gets)-1)])
	})
	rb := &body{}
	post, _ := http.NewRequest(http.MethodPost, "/v1/locations:batch", nil)
	post.Body = rb
	b := 0
	batchHandler := measure(func() {
		b++
		rb.Reset(batches[b%len(batches)].Body)
		clear(w.h)
		svc.ServeHTTP(w, post)
	})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := deploy.NewServer("", svc)
	go func() { _ = srv.Serve(l) }() // ends with ErrServerClosed at Close below
	defer srv.Close()
	conn, err := httpc.Dial(l.Addr().String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	var loopErr error
	loopback := measure(func() {
		if _, _, err := conn.Get("/v1/locations/"+strconv.Itoa(int(nextKey())), "ladder"); err != nil {
			loopErr = err
		}
	})
	if loopErr != nil {
		return nil, fmt.Errorf("loopback rung: %w", loopErr)
	}
	return []stats.Metric{
		stats.Dur("engine.restore_snapshot_s", restore),
		stats.Dur("engine.write_snapshot_s", write),
		stats.Num("engine.snapshot_bytes_per_addr", float64(written.n)/float64(n)),
		query.ns("engine.query_ns"),
		query.allocsM("engine.query_allocs"),
		stats.Per("engine.query_batch_ns_per_key", queryBatch.total, queryBatch.n*gen.BatchKeys),
		stats.Per("deploy.batch_handler_ns_per_key", batchHandler.total, batchHandler.n*gen.BatchKeys),
		batchHandler.allocsM("deploy.batch_handler_allocs"),
		lookupHandler.ns("deploy.lookup_handler_ns"),
		lookupHandler.allocsM("deploy.lookup_handler_allocs"),
		loopback.ns("http.loopback_lookup_ns"),
		loopback.allocsM("http.loopback_lookup_allocs"),
	}, nil
}

// shardedRungs: the same snapshot behind the two-shard router.
func shardedRungs() ([]stats.Metric, error) {
	city := gen.NewCity(1, gen.CityAddresses)
	nextKey := uniformKeys(len(city.Addresses))
	doc := city.Doc()
	city = nil
	router, err := shard.NewRouter(2, 0)
	if err != nil {
		return nil, err
	}
	se := engine.NewSharded(engineConfig(), router)
	defer se.Close()
	if err := se.RestoreSnapshot(bytes.NewReader(doc)); err != nil {
		return nil, err
	}
	doc = nil
	runtime.GC()
	shardedQuery := measure(func() { se.Query(nextKey()) })
	return []stats.Metric{shardedQuery.ns("engine.sharded_query_ns")}, nil
}

// refreshDataset is the re-inference workload's dataset; the write and
// refresh rungs run on it so their numbers can be held against that
// workload's end-to-end ones.
func refreshDataset() (*model.Dataset, error) {
	ds, _, err := synth.Generate(gen.RefreshProfile())
	return ds, err
}

// streamAll feeds every trip of ds through si one fix at a time, the way
// POST /v1/trajectories:stream does, and returns the number of fixes.
func streamAll(si deploy.StreamIngestor, ds *model.Dataset) (int, error) {
	ctx := context.Background()
	points := 0
	for i, tr := range ds.Trips {
		courier := model.CourierID(i + 1)
		for _, pt := range tr.Traj {
			if err := si.IngestPoint(ctx, courier, pt); err != nil {
				return points, err
			}
		}
		if err := si.CloseStream(ctx, courier); err != nil {
			return points, err
		}
		points += len(tr.Traj)
	}
	return points, nil
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// writePath: one streamed fix from the NDJSON line to the pool.
func writePath(tmp string) ([]stats.Metric, error) {
	ctx := context.Background()
	ds, err := refreshDataset()
	if err != nil {
		return nil, err
	}
	coreCfg := core.DefaultConfig()

	// The handler alone, over an engine that ingests nothing.
	bursts, err := gen.StreamCorpus(1, 1)
	if err != nil {
		return nil, err
	}
	opts, _, _ := serveOptions()
	svc := deploy.NewService(noIngest{Engine: engine.New(engineConfig())}, opts)
	w := &sink{h: http.Header{}}
	rb := &body{}
	post, _ := http.NewRequest(http.MethodPost, "/v1/trajectories:stream", nil)
	post.Body = rb
	streamHandler := measure(func() {
		rb.Reset(bursts[0].Body)
		clear(w.h)
		svc.ServeHTTP(w, post)
	})

	// Stay-point extraction alone.
	var pushed, stays int
	push, _ := timed(func() error {
		for _, tr := range ds.Trips {
			ex := traj.NewStreamExtractor(coreCfg.Noise, coreCfg.Stay)
			for _, pt := range tr.Traj {
				stays += len(ex.Push(pt))
			}
			stays += len(ex.Flush())
			pushed += len(tr.Traj)
		}
		return nil
	})

	// One pool-window seal over every trip's stays.
	builder := core.NewIncrementalPoolBuilder(coreCfg)
	for _, tr := range ds.Trips {
		builder.AppendTripStays(tr.Courier, traj.ExtractStayPoints(tr.Traj, coreCfg.Noise, coreCfg.Stay))
	}
	seal, err := timed(func() error { return builder.SealWindow(ctx) })
	if err != nil {
		return nil, err
	}

	// The WAL alone, under each fsync policy, on a record the size of a
	// streamed fix's.
	record := []byte(`{"k":"pt","c":1234,"x":1834.27,"y":903.51,"t":2634817.532}`)
	appendNS := map[wal.FsyncPolicy]rung{}
	var syncR rung
	for _, policy := range []wal.FsyncPolicy{wal.FsyncNever, wal.FsyncInterval, wal.FsyncAlways} {
		l, err := wal.Open(filepath.Join(tmp, "wal-"+policy.String()), wal.Options{Policy: policy})
		if err != nil {
			return nil, err
		}
		var appendErr error
		appendNS[policy] = measure(func() {
			if _, err := l.Append(record); err != nil {
				appendErr = err
			}
		})
		if policy == wal.FsyncNever {
			syncR = measure(func() {
				if _, err := l.Append(record); err != nil {
					appendErr = err
				}
				if err := l.Sync(); err != nil {
					appendErr = err
				}
			})
		}
		if err := l.Close(); err != nil {
			return nil, err
		}
		if appendErr != nil {
			return nil, fmt.Errorf("wal rung (%s): %w", policy, appendErr)
		}
	}

	// The engine's ingest path: without a log, with one, and sharded.
	ingest := func(e engine.Runtime, dir string) (time.Duration, int, *wal.WAL, error) {
		var l *wal.WAL
		if dir != "" {
			var err error
			if l, err = wal.Open(dir, wal.Options{Policy: wal.FsyncInterval}); err != nil {
				return 0, 0, nil, err
			}
			e.AttachWAL(l)
		}
		var n int
		d, err := timed(func() (err error) { n, err = streamAll(e, ds); return })
		return d, n, l, err
	}
	plain := engine.New(engineConfig())
	defer plain.Close()
	noWAL, points, _, err := ingest(plain, "")
	if err != nil {
		return nil, err
	}
	logged := engine.New(engineConfig())
	defer logged.Close()
	walDir := filepath.Join(tmp, "wal-engine")
	withWAL, _, l, err := ingest(logged, walDir)
	if err != nil {
		return nil, err
	}
	records := l.LastSeq()
	if err := l.Close(); err != nil {
		return nil, err
	}
	logBytes, err := dirBytes(walDir)
	if err != nil {
		return nil, err
	}
	router, err := shard.NewRouter(2, 0)
	if err != nil {
		return nil, err
	}
	sharded := engine.NewSharded(engineConfig(), router)
	defer sharded.Close()
	shardedWAL, _, sl, err := ingest(sharded, filepath.Join(tmp, "wal-sharded"))
	if err != nil {
		return nil, err
	}
	if err := sl.Close(); err != nil {
		return nil, err
	}

	// Recovery: reading the log back, and replaying it into a fresh engine.
	l, err = wal.Open(walDir, wal.Options{Policy: wal.FsyncInterval})
	if err != nil {
		return nil, err
	}
	defer l.Close()
	scan, err := timed(func() error { return l.Replay(func(uint64, []byte) error { return nil }) })
	if err != nil {
		return nil, err
	}
	fresh := engine.New(engineConfig())
	defer fresh.Close()
	var replayed int
	replay, err := timed(func() (err error) { replayed, err = fresh.ReplayWAL(ctx, l); return })
	if err != nil {
		return nil, err
	}
	if uint64(replayed) != records {
		return nil, fmt.Errorf("replayed %d of %d WAL records", replayed, records)
	}

	return []stats.Metric{
		stats.Per("deploy.stream_handler_ns_per_point", streamHandler.total, streamHandler.n*bursts[0].Points),
		stats.Per("traj.stream_push_ns_per_point", push, pushed),
		stats.Num("traj.stays_per_kpoint", 1000*float64(stays)/float64(pushed)),
		stats.Dur("core.seal_window_ms", seal),
		appendNS[wal.FsyncNever].ns("wal.append_never_ns"),
		appendNS[wal.FsyncInterval].ns("wal.append_interval_ns"),
		appendNS[wal.FsyncAlways].ns("wal.append_always_ns"),
		syncR.ns("wal.sync_ns"),
		stats.Num("wal.bytes_per_record", float64(logBytes)/float64(records)),
		stats.Per("wal.scan_ns_per_record", scan, int(records)),
		stats.Per("engine.replay_wal_ns_per_record", replay, replayed),
		stats.Per("engine.ingest_point_nowal_ns", noWAL, points),
		stats.Per("engine.ingest_point_wal_ns", withWAL, points),
		stats.Per("engine.sharded_ingest_point_wal_ns", shardedWAL, points),
	}, nil
}

// refreshPath: the stages of a server start over a dataset and of one
// re-inference, each called the way the engine calls it.
func refreshPath(tmp string) ([]stats.Metric, error) {
	ctx := context.Background()
	ds, err := refreshDataset()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(tmp, "ladder.json.gz")
	if err := ds.SaveFile(path); err != nil {
		return nil, err
	}
	load, err := timed(func() error { _, err := model.LoadFile(path); return err })
	if err != nil {
		return nil, err
	}
	cfg := engineConfig()
	e := engine.New(cfg)
	defer e.Close()
	ingest, err := timed(func() error { return e.IngestDataset(ctx, ds) })
	if err != nil {
		return nil, err
	}
	extract, err := timed(func() error { _, err := core.ExtractAllStayPoints(ctx, ds, cfg.Core); return err })
	if err != nil {
		return nil, err
	}
	var pool *core.Pool
	buildPool, err := timed(func() (err error) { pool, err = core.BuildPool(ctx, ds, cfg.Core); return })
	if err != nil {
		return nil, err
	}
	pipe := core.NewPipelineWithPool(ds, cfg.Core, pool)
	ids := make([]model.AddressID, len(ds.Addresses))
	for i, a := range ds.Addresses {
		ids[i] = a.ID
	}
	var samples []*core.Sample
	buildSamples, err := timed(func() (err error) { samples, err = pipe.BuildSamplesCtx(ctx, ids, cfg.Sample); return })
	if err != nil {
		return nil, err
	}
	// The engine's own split: labelled samples, the first fifth held out.
	core.LabelSamples(samples, ds.Truth)
	var labelled []*core.Sample
	for _, s := range samples {
		if s.Label >= 0 {
			labelled = append(labelled, s)
		}
	}
	nVal := int(float64(len(labelled)) * cfg.ValFraction)
	matcher := core.NewLocMatcher(cfg.Matcher)
	var trained core.TrainResult
	fit, err := timed(func() (err error) { trained, err = matcher.Fit(ctx, labelled[nVal:], labelled[:nVal]); return })
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	predict, err := timed(func() error { _, err := matcher.ProbabilitiesAll(ctx, samples); return err })
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)

	return []stats.Metric{
		stats.Dur("model.load_file_s", load),
		stats.Dur("engine.ingest_dataset_s", ingest),
		stats.Dur("core.extract_stays_s", extract),
		stats.Dur("core.build_pool_s", buildPool),
		stats.Dur("core.build_samples_s", buildSamples),
		stats.Dur("core.fit_s", fit),
		stats.Num("core.fit_epochs", float64(trained.Epochs)),
		stats.Dur("core.predict_all_s", predict),
		stats.Num("core.predict_allocs_per_addr", float64(ms.Mallocs-mallocs)/float64(len(samples))),
	}, nil
}
