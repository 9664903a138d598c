// Package engine owns the full DLInfMA serving lifecycle of Section V-F /
// Figure 14: incremental dataset ingest (bi-weekly trip windows appended to
// the candidate pool without reprocessing history), LocMatcher training,
// full re-inference, snapshot persistence, and atomic hot-swap of the
// serving state (frozen store + model) so queries never block on retraining.
//
// There is one engine shape: an Engine coordinating N >= 1 shards. The
// Engine owns every lifecycle decision — courier streams and the streamed
// window grid, every trip delivery and pool-window cut, WAL order,
// backpressure, the background re-inference job, LC pinning, and the
// snapshot layout; a Shard is pool builder + dataset + model + frozen store
// behind peer.ShardBackend.
// New(cfg) is the one-shard case of the same code: with a single shard
// there is nothing to route, so no routing tables exist and reads go
// straight to that shard's store.
//
// Lock order: ingestMu (serializes every mutating ingest operation and
// every pool-window cut, so WAL append order equals apply order) outside mu
// (routing state and counters) outside each shard's evidence lock; jobMu
// guards the background job alone. A shard's pool builder has its own
// owner, the evidence's sealer: a cut hands it the window under ingestMu
// and returns, and the window is clustered under no other lock.
// No lock is held across model compute, and the query path takes none.
//
// Cancellation contract: every long-running stage (stay-point extraction,
// pool build, sample featurization, training, batch inference) threads
// context.Context into the worker pools and returns ctx.Err() promptly on
// cancellation, leaving the served state untouched. A batch window is
// cancellable only while its stay points are extracted, before anything
// changes, so a cancelled window changes nothing on any shard. Close
// cancels the engine's root context, aborting any background re-inference.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"dlinfma/internal/core"
	"dlinfma/internal/deploy"
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/obs"
	"dlinfma/internal/obs/trace"
	"dlinfma/internal/peer"
	"dlinfma/internal/shard"
	"dlinfma/internal/wal"
)

// Config bundles the engine's pipeline, model, and training knobs.
type Config struct {
	Core    core.Config
	Matcher core.LocMatcherConfig
	Sample  core.SampleOptions
	// MaxPendingTrips bounds the ingest backlog: once this many trips have
	// accumulated since the served state was built, live ingest (batch and
	// streamed) answers deploy.ErrBackpressure until a re-inference drains
	// the backlog. 0 = unbounded.
	MaxPendingTrips int
	// ValFraction is the share of labelled samples held out for early
	// stopping during re-inference training (0 trains on everything).
	ValFraction float64
	// LowConfidence is the top-1 probability below which an address-level
	// answer counts as low-confidence in the churn report, the
	// low-confidence-address gauge, and the serving-query counter (0 = 0.5).
	LowConfidence float64
	// Logger receives lifecycle events (ingest, re-inference, snapshot,
	// hot-swap). nil logs nothing — every obs.Logger method is nil-safe.
	Logger *obs.Logger
	// Tracer mints root spans for background jobs (request-path spans ride
	// the caller's context instead). nil traces nothing — every trace method
	// is nil-safe.
	Tracer *trace.Tracer
}

// DefaultConfig returns the paper's defaults with a 20% validation holdout.
func DefaultConfig() Config {
	return Config{
		Core:        core.DefaultConfig(),
		Matcher:     core.DefaultLocMatcherConfig(),
		Sample:      core.DefaultSampleOptions(),
		ValFraction: 0.2,
	}
}

// Engine coordinates N >= 1 shards. With several, addresses and ground truth
// are routed by the router's address key and each trip is replicated to
// every shard owning one of its waybill addresses, so a shard always holds
// the complete trajectory evidence for its own addresses even when stay
// points straddle routing-cell edges. Re-inference runs per shard in
// parallel (bounded by the Workers knob) and each shard hot-swaps its own
// serving state independently — one shard's failed retrain
// never touches the others' served state. Location commonality (Equation 2)
// is normalized by the global distinct trip count, not the shard-local one,
// so per-shard features match what one shard over all the data computes.
//
// The zero value is not usable; call New, NewSharded, or NewShardedBackends.
type Engine struct {
	cfg Config
	// router places addresses and trips; nil when there is one shard.
	router *shard.Router
	// backends is what every fan-out path talks to — the transport seam. In
	// the in-process topology each entry is the matching shards[i]; in the
	// remote topology (NewShardedBackends) entries are peer HTTP clients and
	// the shards slots stay nil.
	backends []peer.ShardBackend
	shards   []*Shard
	// remote is true when the shards live out of process. The local-only
	// paths — streaming ingest, the WAL, snapshot restore and snapshot files —
	// refuse to run then, because they reach into Shard internals no wire
	// protocol carries.
	remote bool
	// lcAuto: several in-process shards and the caller left
	// Core.LCTotalTrips at 0, so Reinfer pins the global trip universe on
	// each shard. (One shard's own trip count already is the global one.)
	lcAuto bool

	// rootCtx bounds background jobs; Close cancels it.
	rootCtx context.Context
	cancel  context.CancelFunc

	// ingestMu serializes every mutating ingest operation (batch windows,
	// streamed points, end markers, window cuts, WAL replay). ss, the logs
	// and the pending window record live under it: wal is the fix log, and
	// wins the window log that OpenWAL opens beside it (nil when the fix
	// log was attached alone), one record per operation that cut or
	// registered.
	ingestMu sync.Mutex
	ss       *streamSet
	wal      *wal.WAL
	wins     *wal.WAL
	win      windowWriter
	burst    burstEncoder
	// onCompactStep, when set (tests), runs between the steps of writing a
	// window record.
	onCompactStep func(step string)

	// mu guards the counters below and, with several shards, the mutable
	// routing state (writers: ingest, restore).
	mu        sync.RWMutex
	name      string
	addrShard map[model.AddressID]int
	// tripShards is queueTripLocked's scratch: the shards one trip goes to.
	tripShards []int
	nTrips     int
	reinfers   int
	// shardTrips accumulates per-shard routed trip counts; tripGauges and
	// the skew gauge publish them so a hot geographic shard is visible
	// before it becomes a slow reinfer.
	shardTrips []int64
	tripGauges []*obs.Gauge

	// routes is the lock-free read path's routing table: an immutable copy
	// of addrShard republished after every mutation (ingest windows and
	// snapshot restores — rare next to queries). nil with one shard.
	routes atomic.Pointer[map[model.AddressID]int32]
	// routeCounters pre-resolves one routed-query counter per shard so the
	// query path adds one atomic op, not a label lookup.
	routeCounters []*obs.Counter

	// jobMu guards the background re-inference job; jobWG tracks the
	// goroutine itself so Close can join it — cancellation alone would let a
	// snapshot save race a mid-swap state. jobRunning mirrors "the job is
	// running" for Status, which the read path calls and so takes no
	// exclusive lock.
	jobMu      sync.Mutex
	jobSeq     int
	job        *api.JobStatus
	jobWG      sync.WaitGroup
	jobRunning atomic.Bool
}

// New returns an empty engine over one in-process shard. Close it to cancel
// and join background work.
func New(cfg Config) *Engine { return newLocal(cfg, nil, 1) }

// NewSharded returns an empty engine over r.N() in-process shards, each with
// cfg. Close it to cancel and join background work.
func NewSharded(cfg Config, r *shard.Router) *Engine { return newLocal(cfg, r, r.N()) }

func newLocal(cfg Config, r *shard.Router, n int) *Engine {
	e := newEngine(cfg, r, make([]peer.ShardBackend, n))
	e.lcAuto = e.routed() && cfg.Core.LCTotalTrips == 0
	for i := range e.shards {
		// The only shard of a one-shard engine is the whole model: its
		// quality metrics and swap reports say "global", not a shard index.
		label, log := "global", cfg.Logger
		if e.routed() {
			label, log = strconv.Itoa(i), cfg.Logger.With("shard", i)
		}
		e.shards[i] = newShard(cfg, label, log)
		e.backends[i] = e.shards[i]
	}
	return e
}

// NewShardedBackends returns an engine whose shards live behind the given
// backends — typically peer HTTP clients pointing at other processes —
// instead of in-process shards. backends[i] serves shard i of r's routing
// space, so len(backends) must equal r.N().
//
// The remote topology keeps the full fan-out semantics (routed ingest,
// parallel re-inference, scatter/gather reads, aggregated status, manifest
// snapshots) but refuses the local-only paths: streaming ingest, WAL
// attach/replay, snapshot restore, and snapshot files all reach into shard
// internals that have no wire form, and each remote process owns its own.
// Two caveats follow from the same boundary: automatic LC-normalization
// pinning cannot cross the wire (pin cfg.Core.LCTotalTrips in every shard
// process for bit-identical features), and backpressure is each shard
// process's own MaxPendingTrips — a remote reject still surfaces here as
// deploy.ErrBackpressure.
func NewShardedBackends(cfg Config, r *shard.Router, backends []peer.ShardBackend) (*Engine, error) {
	if len(backends) != r.N() {
		return nil, fmt.Errorf("engine: %d backends for %d shards", len(backends), r.N())
	}
	for i, b := range backends {
		if b == nil {
			return nil, fmt.Errorf("engine: nil backend for shard %d", i)
		}
	}
	e := newEngine(cfg, r, append([]peer.ShardBackend(nil), backends...))
	e.remote = true
	return e, nil
}

func newEngine(cfg Config, r *shard.Router, backends []peer.ShardBackend) *Engine {
	ctx, cancel := context.WithCancel(context.Background())
	n := len(backends)
	e := &Engine{
		cfg:      cfg,
		router:   r,
		backends: backends,
		shards:   make([]*Shard, n),
		rootCtx:  ctx,
		cancel:   cancel,
		ss:       newStreamSet(cfg.Core),
	}
	if e.routed() {
		e.addrShard = make(map[model.AddressID]int)
		e.shardTrips = make([]int64, n)
		e.tripGauges = make([]*obs.Gauge, n)
		e.routeCounters = make([]*obs.Counter, n)
		for i := range e.backends {
			e.tripGauges[i] = ingestShardTrips.With(strconv.Itoa(i))
			e.routeCounters[i] = shardRoutedQueries.With(strconv.Itoa(i))
		}
	}
	return e
}

// routed reports whether there is anything to route. With one shard every
// key, window, and trip belongs to shard 0: no routing tables are built, and
// errors and status carry no shard breakdown.
func (e *Engine) routed() bool { return len(e.backends) > 1 }

// shardErr names the failing shard in err when there are several.
func (e *Engine) shardErr(i int, err error) error {
	if !e.routed() {
		return err
	}
	return fmt.Errorf("engine: shard %d: %w", i, err)
}

// Close cancels the root context and joins any in-flight background
// re-inference, so after Close returns no goroutine can swap serving state —
// a subsequent SaveSnapshotFile observes a settled engine. The served state
// stays queryable. Logs OpenWAL opened are closed; a log given to AttachWAL
// is its caller's to close.
func (e *Engine) Close() {
	e.cancel()
	e.jobWG.Wait()
	e.settle()
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if e.wins != nil {
		if err := errors.Join(e.wins.Close(), e.wal.Close()); err != nil {
			e.cfg.Logger.Error("closing the write-ahead logs failed", "err", err)
		}
	}
}

// withIngestLock runs fn under ingestMu and releases it however fn ends, so
// a panic or a runtime.Goexit inside it (a test hook's t.Fatal in a window
// record's steps) cannot leave Close waiting on the lock.
func (e *Engine) withIngestLock(fn func()) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	fn()
}

// SetName labels the dataset (used in status and snapshots). Remote shard
// processes keep their own dataset labels.
func (e *Engine) SetName(name string) {
	e.mu.Lock()
	e.name = name
	e.mu.Unlock()
	for _, sh := range e.shards {
		if sh != nil {
			sh.ev.setName(name)
		}
	}
}

// Ingest appends one window of trips plus any new addresses and ground
// truth, routed across the shards: addresses and truth by the router's
// address key, trips replicated to every shard owning one of their waybill
// addresses (address-less trips by trajectory key). Each trip's stay points
// are extracted once, the trips are queued through the one trip delivery,
// and the engine then cuts the window on every shard at once; Ingest
// returns once every shard's candidate pool holds it. The served state is
// not touched until the next Reinfer. Cancelling ctx during the extraction
// leaves every shard without the window.
func (e *Engine) Ingest(ctx context.Context, trips []model.Trip, addrs []model.AddressInfo, truth map[model.AddressID]geo.Point) error {
	var err error
	if e.remote {
		err = e.ingestRemote(ctx, trips, addrs, truth)
	} else {
		err = e.ingest(ctx, trips, addrs, truth)
	}
	e.settle()
	return err
}

// errFixLogOnly refuses a batch window on an engine whose fix log was
// attached alone: the window's durable record belongs in the window log.
var errFixLogOnly = errors.New("engine: a batch window needs the window log; open the logs with OpenWAL, not AttachWAL")

// ingest is Ingest for in-process shards. The stay points are extracted
// before anything changes; then, under ingestMu, the window's addresses and
// truth are registered, its trips delivered through queueTripLocked between
// two cuts (the first seals the queued streamed trips, so streamed and batch
// windows stay distinct pool windows), and the window record written, which
// is the operation's one durable record: a rejected or cancelled window, or
// one the logs cannot hold, never changes anything. (A window record append
// that itself fails leaves the window applied but unacknowledged; the
// caller's retry then duplicates it, the same at-least-once edge every
// acknowledge-after-apply log has.)
func (e *Engine) ingest(ctx context.Context, trips []model.Trip, addrs []model.AddressInfo, truth map[model.AddressID]geo.Point) error {
	xctx, xsp := trace.Start(ctx, "engine.extract_stays")
	xsp.SetAttr("trips", len(trips))
	stays, err := core.ExtractAllStayPoints(xctx, &model.Dataset{Trips: trips}, e.cfg.Core)
	xsp.RecordError(err)
	xsp.End()
	if err != nil {
		return err
	}
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if len(trips) > 0 && e.overloaded() {
		backpressureRejects.Inc()
		return deploy.ErrBackpressure
	}
	if e.wal != nil && (len(trips) > 0 || len(addrs) > 0 || len(truth) > 0) {
		switch {
		case e.wins == nil:
			return errFixLogOnly
		case e.win.failed != nil:
			return fmt.Errorf("engine: the window log failed, and a batch window has no other durable record: %w", e.win.failed)
		}
	}
	if len(trips) > 0 {
		e.sealWindowLocked(ctx)
	}
	added := e.registerLocked(addrs, truth)
	for i := range trips {
		e.queueTripLocked(&trips[i], stays[i])
	}
	if len(trips) > 0 {
		e.sealWindowLocked(ctx)
	}
	if e.cfg.Logger.Enabled(obs.LevelDebug) {
		e.cfg.Logger.WithTrace(ctx).Debug("ingest window", "trips", len(trips), "new_addrs", added)
	}
	return e.writeWindowLocked(ctx)
}

// registerLocked registers addresses and truth on their shards, by
// core.PartitionWindow's rule, and adds them to the pending window record.
// It reports how many addresses were new. Callers hold ingestMu.
func (e *Engine) registerLocked(addrs []model.AddressInfo, truth map[model.AddressID]geo.Point) int {
	if len(addrs) == 0 && len(truth) == 0 {
		return 0
	}
	if e.compacting() {
		e.win.register(addrs, truth)
	}
	added := 0
	for i, p := range e.partition(nil, addrs, truth) {
		if !p.Empty() {
			added += e.shards[i].ev.addAddrs(p.Addrs, p.Truth)
		}
	}
	return added
}

// ingestRemote is Ingest for shards in other processes: the window is
// partitioned here and each shard process ingests, logs and cuts its own
// part (peer.Ingester). A part a shard refuses is not counted; the shards
// already through keep theirs, so a caller wanting a clean window boundary
// retries the whole window.
func (e *Engine) ingestRemote(ctx context.Context, trips []model.Trip, addrs []model.AddressInfo, truth map[model.AddressID]geo.Point) error {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	for i, p := range e.partition(trips, addrs, truth) {
		if p.Empty() {
			continue
		}
		ing, ok := e.backends[i].(peer.Ingester)
		if !ok {
			return e.shardErr(i, errors.New("engine: the shard backend takes no ingest"))
		}
		sctx, ssp := trace.Start(ctx, "engine.shard_ingest")
		ssp.SetAttr("shard", i)
		err := ing.Ingest(sctx, p.Trips, p.Addrs, p.Truth)
		if err != nil {
			err = e.shardErr(i, err)
			ssp.RecordError(err)
		}
		ssp.End()
		if err != nil {
			return err
		}
		if e.routed() && len(p.Trips) > 0 {
			e.mu.Lock()
			e.countShardTripsLocked(i, len(p.Trips))
			e.mu.Unlock()
		}
	}
	e.mu.Lock()
	e.nTrips += len(trips)
	e.mu.Unlock()
	return nil
}

// partition splits one window by owning shard, pinning each new address to
// its shard in the routing table. One shard takes the window whole.
func (e *Engine) partition(trips []model.Trip, addrs []model.AddressInfo, truth map[model.AddressID]geo.Point) []core.WindowPartition {
	if !e.routed() {
		return []core.WindowPartition{{Trips: trips, Addrs: addrs, Truth: truth}}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	added := 0
	for _, a := range addrs {
		if _, ok := e.addrShard[a.ID]; !ok {
			e.addrShard[a.ID] = e.router.AddressShard(a)
			added++
		}
	}
	parts := core.PartitionWindow(len(e.backends), trips, addrs, truth, e.shardOfLocked, e.router.TripShard)
	if added > 0 {
		e.publishRoutesLocked()
	}
	return parts
}

// shardOfLocked is the routing table's answer for one address. Callers
// hold mu.
func (e *Engine) shardOfLocked(id model.AddressID) (int, bool) {
	sh, ok := e.addrShard[id]
	return sh, ok
}

// countShardTripsLocked adds n > 0 trips shard sh has taken (one queued
// trip, or a remote shard's part its Ingest accepted) to the cumulative
// per-shard counts and republishes the skew gauge: max over mean of the
// per-shard totals (1 = perfectly balanced, len(shards) = everything on one
// shard). A part a shard rejects is not counted, so a producer's retry is
// counted once. Callers hold mu, with several shards.
func (e *Engine) countShardTripsLocked(sh, n int) {
	e.shardTrips[sh] += int64(n)
	e.tripGauges[sh].Set(float64(e.shardTrips[sh]))
	var total, max int64
	for _, c := range e.shardTrips {
		total += c
		if c > max {
			max = c
		}
	}
	mean := float64(total) / float64(len(e.shardTrips))
	ingestSkew.Set(float64(max) / mean)
}

// IngestDataset feeds a whole dataset through Ingest in PoolWindowSeconds
// windows — the offline path (cmd infer/eval) and the serve subcommand's
// initial load use it so batch and online runs share one code path. Window
// boundaries are computed before routing, so every shard sees the same
// window grid one shard over all the data would.
func (e *Engine) IngestDataset(ctx context.Context, ds *model.Dataset) error {
	e.mu.RLock()
	name := e.name
	e.mu.RUnlock()
	if name == "" {
		e.SetName(ds.Name)
	}
	if err := e.Ingest(ctx, nil, ds.Addresses, ds.Truth); err != nil {
		return err
	}
	return core.ForEachWindow(ds.Trips, e.cfg.Core.PoolWindowSeconds, func(batch []model.Trip) error {
		return e.Ingest(ctx, batch, nil, nil)
	})
}

// Reinfer retrains and re-infers every non-empty shard concurrently, at most
// Workers shards at a time (0 = GOMAXPROCS). Each shard that succeeds swaps
// its serving state independently; failures are joined into the returned
// error (naming their shard when there are several) and do not disturb the
// other shards' swaps or the failing shard's previously served state.
func (e *Engine) Reinfer(ctx context.Context) error {
	// Seal every shard's open window (a view covers sealed trips only) and
	// fix, in the same hold, the trip count the retrain will cover. The cut
	// is logged before it is made, so a replay cuts where this engine did; a
	// failed append fails the re-inference before anything changed.
	var total int
	var err error
	e.withIngestLock(func() {
		if e.wal != nil {
			if _, err = e.wal.Append(walCutRecord[:]); err != nil {
				return
			}
		}
		e.sealWindowLocked(ctx)
		_ = e.writeWindowLocked(ctx) // the fix log holds the cut
		e.mu.RLock()
		total = e.nTrips
		e.mu.RUnlock()
	})
	if err != nil {
		return err
	}

	if e.lcAuto {
		// The per-shard trip universe for LC normalization is the global
		// distinct trip count: replicas exist on several shards, but each is
		// one trip of one global dataset. Only in-process shards can be
		// pinned; remote topologies pin LCTotalTrips in each shard process's
		// own config instead (see NewShardedBackends).
		for _, sh := range e.shards {
			sh.lcTotalTrips.Store(int64(total))
		}
	}

	workers := e.cfg.Core.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	errs := make([]error, len(e.backends))
	ran := make([]bool, len(e.backends))
	var wg sync.WaitGroup
	for i, b := range e.backends {
		// Empty region among several: nothing to train, keep any served
		// state. (A lone shard always runs, so an empty engine's failure
		// lands in its health record.)
		if e.routed() && b.Status().Trips == 0 {
			continue
		}
		ran[i] = true
		wg.Add(1)
		go func(i int, b peer.ShardBackend) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sctx, ssp := trace.Start(ctx, "engine.shard_reinfer")
			ssp.SetAttr("shard", i)
			if err := b.Reinfer(sctx); err != nil {
				errs[i] = e.shardErr(i, err)
				ssp.RecordError(errs[i])
			}
			ssp.End()
		}(i, b)
	}
	wg.Wait()

	any, swapped := false, false
	var failed []error
	for i := range e.backends {
		if !ran[i] {
			continue
		}
		any = true
		if errs[i] != nil {
			failed = append(failed, errs[i])
		} else {
			swapped = true
		}
	}
	if !any {
		return errNoTrips
	}
	if swapped {
		e.mu.Lock()
		e.reinfers++
		e.mu.Unlock()
	}
	return errors.Join(failed...)
}

// StartReinfer launches Reinfer on the engine's root context in a background
// goroutine. While a job is running it returns that job's status with
// deploy.ErrReinferRunning.
func (e *Engine) StartReinfer() (api.JobStatus, error) {
	e.jobMu.Lock()
	if e.job != nil && e.job.State == api.JobRunning {
		js := *e.job
		e.jobMu.Unlock()
		return js, deploy.ErrReinferRunning
	}
	e.jobSeq++
	job := &api.JobStatus{ID: e.jobSeq, State: api.JobRunning}
	e.job = job
	e.jobRunning.Store(true)
	// Snapshot before the goroutine exists: a fast job could finish (and
	// rewrite *job under jobMu) before this function returns.
	js := *job
	e.jobMu.Unlock()

	e.jobWG.Add(1)
	go func() {
		defer e.jobWG.Done()
		// A background job outlives the request that kicked it off (202 is
		// long gone by the time training ends), so it gets its own root
		// span rather than riding the request trace.
		ctx, root := e.cfg.Tracer.StartRoot(e.rootCtx, "engine.reinfer_job", trace.SpanContext{})
		root.SetAttr("job_id", job.ID)
		err := e.Reinfer(ctx)
		root.RecordError(err)
		root.End()
		inferred := 0
		if err == nil {
			for _, b := range e.backends {
				inferred += b.Status().Inferred
			}
		}
		e.jobMu.Lock()
		defer e.jobMu.Unlock()
		e.jobRunning.Store(false)
		if err != nil {
			job.State = api.JobFailed
			job.Error = err.Error()
			return
		}
		job.State = api.JobDone
		job.Inferred = inferred
	}()
	return js, nil
}

// ReinferStatus reports the latest background job; ok is false before the
// first StartReinfer.
func (e *Engine) ReinferStatus() (api.JobStatus, bool) {
	e.jobMu.Lock()
	defer e.jobMu.Unlock()
	if e.job == nil {
		return api.JobStatus{}, false
	}
	return *e.job, true
}

// publishRoutesLocked snapshots addrShard into a fresh immutable table for
// the lock-free query path. Callers must hold mu; routing mutations are rare
// (ingest windows, restores) so the copy never rides a query.
func (e *Engine) publishRoutesLocked() {
	rt := make(map[model.AddressID]int32, len(e.addrShard))
	for id, sh := range e.addrShard {
		rt[id] = int32(sh)
	}
	e.routes.Store(&rt)
}

// route returns the shard serving addr: one atomic load of the routing
// table and one lookup, no locks. -1 means no shard owns the address — never
// ingested and absent from any restored manifest. One shard owns everything.
func (e *Engine) route(addr model.AddressID) int {
	if !e.routed() {
		return 0
	}
	if rt := e.routes.Load(); rt != nil {
		if sh, ok := (*rt)[addr]; ok {
			e.routeCounters[sh].Inc()
			return int(sh)
		}
	}
	shardUnroutedQueries.Inc()
	return -1
}

// Query is QueryCtx without a request: from in-process shards, a
// routing-table lookup (skipped with one shard) and then the shard's own
// lock-free frozen-store read — no locks and zero allocations anywhere on
// the path.
func (e *Engine) Query(addr model.AddressID) (geo.Point, deploy.Source) {
	return e.QueryCtx(context.Background(), addr)
}

// QueryCtx answers from the owning shard's served store, carrying the
// request context so a remote shard hop propagates the caller's trace and
// request id. It returns SourceNone for unknown addresses and before the
// first completed re-inference or snapshot restore; queries never wait on
// retraining. A shard that cannot answer while ctx is live (a remote one
// with every peer down) answers SourceUnavailable, not a miss.
func (e *Engine) QueryCtx(ctx context.Context, addr model.AddressID) (geo.Point, deploy.Source) {
	sh := e.route(addr)
	if sh < 0 {
		return geo.Point{}, deploy.SourceNone
	}
	p, src, err := e.backends[sh].Query(ctx, addr)
	if err != nil && ctx.Err() == nil {
		return geo.Point{}, deploy.SourceUnavailable
	}
	return p, src
}

// QueryBatch answers every key of addrs into out, input order preserved. One
// shard answers the whole batch from a single frozen-store load. Several
// scatter/gather: keys are grouped by owning shard from one routing-table
// load, the per-shard groups fan out to at most GOMAXPROCS workers (one per
// populated shard when the shards are remote: their RPCs overlap), and
// every worker writes results straight into the caller-visible positions —
// out[i] always answers addrs[i], so reassembly is free. With in-process
// shards, small batches and single-shard groups run inline rather than
// paying goroutine handoff.
// Cancelling ctx stops the remaining chunks and returns ctx's error.
func (e *Engine) QueryBatch(ctx context.Context, addrs []model.AddressID, out []deploy.BatchAnswer) ([]deploy.BatchAnswer, error) {
	out = deploy.GrowAnswers(out, len(addrs))
	if !e.routed() {
		return out, e.backends[0].QueryBatchIdx(ctx, addrs, nil, out)
	}
	return out, e.scatterGather(ctx, addrs, out)
}

// scatterGather is QueryBatch's routed path. It is its own function so the
// worker closures' captured variables are heap-allocated here only, keeping
// the one-shard path allocation-free.
func (e *Engine) scatterGather(ctx context.Context, addrs []model.AddressID, out []deploy.BatchAnswer) error {
	rt := e.routes.Load()
	if rt == nil {
		shardUnroutedQueries.Add(int64(len(addrs)))
		for i := range out {
			out[i] = deploy.BatchAnswer{Src: deploy.SourceNone}
		}
		return ctx.Err()
	}

	sc := scatterPool.Get().(*scatter)
	defer sc.release()
	groups := sc.group(len(e.backends), *rt, addrs, out)

	active := 0
	last := -1
	for sh, idx := range groups {
		if len(idx) > 0 {
			active++
			last = sh
			e.routeCounters[sh].Add(int64(len(idx)))
		}
	}
	if active == 0 {
		return ctx.Err()
	}
	// Remote shards answer over the wire: each populated shard gets its own
	// goroutine, whatever the batch size, so the RPCs overlap instead of
	// queueing one behind the other. In-process shards answer from memory.
	workers := active
	if !e.remote {
		workers = min(active, runtime.GOMAXPROCS(0))
		// One worker (or one populated shard, or a batch too small to
		// amortize a goroutine handoff): answer inline on the caller's
		// goroutine.
		if workers == 1 || len(addrs) < 2*queryBatchChunk {
			for sh, idx := range groups {
				if len(idx) == 0 {
					continue
				}
				if err := e.backends[sh].QueryBatchIdx(ctx, addrs, idx, out); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers-1)
	for sh, idx := range groups {
		if len(idx) == 0 || sh == last {
			continue // the last group runs on the caller's goroutine below
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(sh int, idx []int32) {
			defer wg.Done()
			defer func() { <-sem }()
			sc.errs[sh] = e.backends[sh].QueryBatchIdx(ctx, addrs, idx, out)
		}(sh, idx)
	}
	sc.errs[last] = e.backends[last].QueryBatchIdx(ctx, addrs, groups[last], out)
	wg.Wait()
	for _, err := range sc.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// InferredLocations collects every in-process shard's address-level answers
// into a fresh map (nil before any shard serves, and nil for remote shards —
// the wire carries per-key queries and snapshots, not bulk dumps). Shards own
// disjoint addresses, so the result is a disjoint union.
func (e *Engine) InferredLocations() map[model.AddressID]geo.Point {
	var out map[model.AddressID]geo.Point
	for _, sh := range e.shards {
		if sh == nil {
			continue
		}
		f := sh.frozen()
		if f == nil {
			continue
		}
		if out == nil {
			out = make(map[model.AddressID]geo.Point, f.Inferred()*len(e.shards))
		}
		f.Each(func(id model.AddressID, a deploy.FrozenAnswer) {
			if a.Src == deploy.SourceAddress {
				out[id] = a.Loc
			}
		})
	}
	return out
}

// Status aggregates the shard statuses through the backend seam: counters
// are sums, Ready is true as soon as any shard serves, and — when there is
// more than one in-process shard to tell apart — the per-shard breakdown
// rides along for /healthz, remote shards carrying their owner's endpoint in
// Peer and an unreachable one surfacing as a Failed shard rather than an
// error.
func (e *Engine) Status() api.EngineStatus {
	e.mu.RLock()
	out := api.EngineStatus{Dataset: e.name, Trips: e.nTrips, Reinfers: e.reinfers}
	e.mu.RUnlock()
	breakdown := e.routed() || e.remote
	for i, b := range e.backends {
		st := b.Status()
		out.Addresses += st.Addresses
		out.Inferred += st.Inferred
		out.PoolLocations += st.PoolLocations
		out.PendingTrips += st.PendingTrips
		if st.PendingAgeSeconds > out.PendingAgeSeconds {
			out.PendingAgeSeconds = st.PendingAgeSeconds
		}
		if st.Ready {
			out.Ready = true
		}
		if st.Failed && !out.Failed {
			out.Failed = true
			out.LastError = st.LastError
			if breakdown {
				out.LastError = fmt.Sprintf("shard %d: %s", i, st.LastError)
			}
		}
		if breakdown {
			shardSt := api.ShardStatus{Shard: i, EngineStatus: st}
			if ep, ok := b.(interface{ Endpoint() string }); ok {
				shardSt.Peer = ep.Endpoint()
			}
			out.Shards = append(out.Shards, shardSt)
		}
	}
	out.ReinferRunning = e.jobRunning.Load()
	out.OpenStreams = e.ss.open()
	return out
}

// SwapReports merges the in-process shards' swap rings, newest first, up to
// limit (limit <= 0: everything retained). Remote shard backends report
// through their own process's /v1/debug/swaps (and the frontend's peer metric
// re-export); a pure frontend answers an empty list.
func (e *Engine) SwapReports(limit int) []api.SwapReport {
	var out []api.SwapReport
	for _, sh := range e.shards {
		if sh != nil {
			out = append(out, sh.swaps.list(0)...)
		}
	}
	// Stable: each ring is already newest-first, and two swaps of one shard
	// may share a timestamp.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.After(out[j].Time) })
	if limit > 0 && limit < len(out) {
		out = out[:limit]
	}
	return out
}

// statically assert that Engine satisfies deploy's interface.
var _ deploy.Engine = (*Engine)(nil)
