package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"dlinfma/internal/core"
	"dlinfma/internal/deploy"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/obs"
	"dlinfma/internal/obs/trace"
)

// serving is what a shard publishes at a hot swap, immutable from then on:
// the frozen store every query, status report, churn diff, and snapshot write
// reads, the matcher that produced it, and the size of the candidate pool it
// was inferred from (0 after a restore: a snapshot carries no pool).
type serving struct {
	frozen   *deploy.FrozenStore
	matcher  *core.LocMatcher
	poolLocs int
}

// Shard is the in-process peer.ShardBackend: one region's pool builder,
// accumulated dataset, trained model, frozen store, and swap ring. It makes
// no lifecycle decisions — courier streams, the WAL, backpressure, the
// background job, and the snapshot layout all belong to the Engine that owns
// it — and is only ever constructed by one.
//
// Two small lock domains: mu guards the accumulating dataset (Ingest mutates
// it and holds it across a window's clustering; Reinfer snapshots it),
// healthMu the record of the last re-inference attempt. Everything served
// hangs off one atomic pointer, and what Status reports of the dataset off
// another, so queries and status reads never wait for mu.
type Shard struct {
	cfg Config
	log *obs.Logger

	// mu guards the accumulating ingest state.
	mu      sync.Mutex
	name    string
	builder *core.IncrementalPoolBuilder
	// trips holds every ingested trip without its Traj: the builder has the
	// stay points, and re-inference reads only courier, times and waybills.
	trips    []model.Trip
	addrs    []model.AddressInfo
	addrSeen map[model.AddressID]bool
	truth    map[model.AddressID]geo.Point
	// pending counts trips ingested after the served state was built;
	// pendingSince is when the current backlog started accumulating (zero
	// while it is empty) — the age the auto-reinfer trigger watches.
	pending      int
	pendingSince time.Time
	// counts is what Status reports of the fields above, republished by every
	// writer before it releases mu: the HTTP layer asks for Status on every
	// batch lookup and every miss, and must not queue behind a window.
	counts atomic.Pointer[ingestCounts]

	// sv is the served state, republished whole at every hot swap. Query
	// loads the pointer and does one map lookup — no locks, no allocations.
	// nil until the first swap.
	sv atomic.Pointer[serving]

	// healthMu guards the record of re-inference attempts. failed is set when
	// the most recent attempt errored (not counting cancellation, which is an
	// orderly shutdown, not ill health); lastErr keeps the message for
	// /healthz and /v1/reinfer status. A read-write lock because Status reads
	// it on every batch request and every miss, from all connections at once:
	// an exclusive lock here cost batch lookups 16 % more CPU per key.
	healthMu sync.RWMutex
	reinfers int
	failed   bool
	lastErr  string

	// label tags this shard's quality metrics and swap reports: "global" for
	// the only shard of a one-shard engine, the shard index otherwise.
	label string
	// lowConf is the resolved Config.LowConfidence threshold the read path
	// compares answer confidence against.
	lowConf float32
	// swaps rings the last Config.SwapHistory hot-swap churn reports.
	swaps *swapRing
}

// ingestCounts is the part of a shard's Status that lives under mu.
type ingestCounts struct {
	name                      string
	addresses, trips, pending int
	pendingSince              time.Time
}

func newShard(cfg Config, label string, log *obs.Logger) *Shard {
	lowConf := cfg.LowConfidence
	if lowConf <= 0 {
		lowConf = defaultLowConfidence
	}
	s := &Shard{
		cfg:      cfg,
		log:      log,
		builder:  core.NewIncrementalPoolBuilder(cfg.Core),
		addrSeen: make(map[model.AddressID]bool),
		truth:    make(map[model.AddressID]geo.Point),
		label:    label,
		lowConf:  float32(lowConf),
		swaps:    newSwapRing(cfg.SwapHistory),
	}
	s.counts.Store(&ingestCounts{})
	return s
}

// publishCountsLocked republishes what Status reports of the ingest state.
// Callers hold mu and have just changed it.
func (s *Shard) publishCountsLocked() {
	s.counts.Store(&ingestCounts{name: s.name, addresses: len(s.addrs), trips: len(s.trips),
		pending: s.pending, pendingSince: s.pendingSince})
}

// Ingest applies one already-partitioned window: new addresses and ground
// truth are registered, and the trips are clustered and merged into the
// candidate pool immediately (the paper's bi-weekly pool maintenance). The
// served state is not touched until the next Reinfer. Cancelling ctx
// mid-window returns ctx.Err() with the pool unchanged.
func (s *Shard) Ingest(ctx context.Context, trips []model.Trip, addrs []model.AddressInfo, truth map[model.AddressID]geo.Point) error {
	ctx, tsp := trace.Start(ctx, "engine.ingest")
	tsp.SetAttr("trips", len(trips))
	defer tsp.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publishCountsLocked()
	newAddrs := s.addAddressesLocked(addrs)
	ingestAddrs.Add(int64(newAddrs))
	for id, p := range truth {
		s.truth[id] = p
	}
	if len(trips) > 0 {
		if err := s.builder.AddWindow(ctx, trips); err != nil {
			tsp.RecordError(err)
			return err
		}
		s.appendTripsLocked(trips...)
		s.addPendingLocked(len(trips))
		ingestTrips.Add(int64(len(trips)))
		ingestWindows.Inc()
	}
	s.log.WithTrace(ctx).Debug("ingest window",
		"trips", len(trips), "new_addrs", newAddrs, "total_trips", len(s.trips))
	return nil
}

// appendTripsLocked records trips the builder has consumed: courier, times
// and waybills, without the fixes. Nothing reads a fix after stay-point
// extraction, and the fixes are most of what a trip weighs. The caller's
// trips are copied, never modified. Callers hold mu.
func (s *Shard) appendTripsLocked(trips ...model.Trip) {
	for _, tr := range trips {
		tr.Traj = nil
		s.trips = append(s.trips, tr)
	}
}

// addAddressesLocked registers the addresses not seen before and reports how
// many were new. Callers hold mu.
func (s *Shard) addAddressesLocked(addrs []model.AddressInfo) int {
	added := 0
	for _, a := range addrs {
		if !s.addrSeen[a.ID] {
			s.addrSeen[a.ID] = true
			s.addrs = append(s.addrs, a)
			added++
		}
	}
	return added
}

// Reinfer runs the full second stage over everything ingested so far:
// finalize the incremental pool, featurize every address, train a fresh
// LocMatcher, predict every address, and atomically swap the new serving
// state (frozen store, model) into service. Queries keep hitting the old
// state until the swap. Cancelling ctx aborts at the next cooperative
// check and leaves the served state untouched.
func (s *Shard) Reinfer(ctx context.Context) error {
	ctx, tsp := trace.Start(ctx, "engine.reinfer")
	sp := obs.StartSpan("reinfer", reinferDuration)
	err := s.reinfer(ctx)
	tsp.RecordError(err)
	tsp.End()
	d := sp.End()
	log := s.log.WithTrace(ctx)
	switch {
	case err == nil:
		reinferSuccess.Inc()
		s.setHealth(false, "")
		log.Info("reinfer done", "dur", d)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Shutdown or deadline, not ill health: the served state is intact
		// and the shard is as healthy as it was before the attempt.
		reinferCanceled.Inc()
		log.Warn("reinfer canceled", "dur", d, "err", err)
	default:
		reinferFailure.Inc()
		s.setHealth(true, err.Error())
		log.Error("reinfer failed", "dur", d, "err", err)
	}
	return err
}

// setHealth records the outcome of the last consequential re-inference
// attempt (success or failure; cancellations don't touch it).
func (s *Shard) setHealth(failed bool, msg string) {
	s.healthMu.Lock()
	s.failed = failed
	s.lastErr = msg
	s.healthMu.Unlock()
}

// errNoTrips fails a re-inference with nothing to train on.
var errNoTrips = errors.New("engine: no trips ingested")

func (s *Shard) reinfer(ctx context.Context) error {
	// Snapshot the ingest state under mu; all compute happens off-lock on
	// the snapshot (builder.Finalize itself is cheap relative to training
	// and must run under mu since Ingest mutates the builder). Finalize
	// folds any streamed trips still awaiting a window seal into one final
	// window, so the pool always covers exactly the snapshotted trips.
	s.mu.Lock()
	if len(s.trips) == 0 {
		s.mu.Unlock()
		return errNoTrips
	}
	pool := s.builder.FinalizeCtx(ctx)
	ds := &model.Dataset{
		Name:      s.name,
		Trips:     s.trips[:len(s.trips):len(s.trips)],
		Addresses: append([]model.AddressInfo(nil), s.addrs...),
		Truth:     make(map[model.AddressID]geo.Point, len(s.truth)),
	}
	for id, p := range s.truth {
		ds.Truth[id] = p
	}
	nTrips := len(s.trips)
	// Snapshot the config under mu: the engine may adjust the LC
	// normalization (setLCTotalTrips) between re-inferences.
	cfg := s.cfg
	s.mu.Unlock()

	pipe := core.NewPipelineWithPool(ds, cfg.Core, pool)
	ids := make([]model.AddressID, len(ds.Addresses))
	for i, a := range ds.Addresses {
		ids[i] = a.ID
	}
	samples, err := pipe.BuildSamplesCtx(ctx, ids, cfg.Sample)
	if err != nil {
		return err
	}
	core.LabelSamples(samples, ds.Truth)

	var labelled []*core.Sample
	for _, sm := range samples {
		if sm.Label >= 0 {
			labelled = append(labelled, sm)
		}
	}
	nVal := int(float64(len(labelled)) * cfg.ValFraction)
	mcfg := cfg.Matcher
	if mcfg.Workers == 0 {
		mcfg.Workers = cfg.Core.Workers
	}
	matcher := core.NewLocMatcher(mcfg)
	if _, err := matcher.Fit(ctx, labelled[nVal:], labelled[:nVal]); err != nil {
		return err
	}
	// The full probability distributions, not just argmax indices: the top-1
	// probability is the confidence stamp behind each served answer. The
	// local argmax below replicates Predict exactly (nil distribution for a
	// candidate-less sample, strict > tie-breaking toward the lower index),
	// so predictions are bit-identical to the PredictAll path.
	probs, err := matcher.ProbabilitiesAll(ctx, samples)
	if err != nil {
		return err
	}
	// The writable store lives for this block only: the published state is
	// its frozen form, which answers every later question about it.
	confHist := reinferConfidence.With(s.label)
	store := deploy.NewStore()
	store.LoadDataset(ds)
	for i, sm := range samples {
		pred, conf := argmaxProb(probs[i])
		store.Put(sm.Addr, sm.PredictedLocation(pred))
		if pred >= 0 {
			store.SetConfidence(sm.Addr, float32(conf))
			confHist.Observe(conf)
		}
	}

	_, swapSp := trace.Start(ctx, "engine.hot_swap")
	s.publish(&serving{frozen: store.Freeze(), matcher: matcher, poolLocs: len(pool.Locations)}, swapKindReinfer)
	s.healthMu.Lock()
	s.reinfers++
	s.healthMu.Unlock()
	swapSp.End()

	s.mu.Lock()
	s.pending = len(s.trips) - nTrips
	// Trips that raced the retrain arrived somewhere during it; restarting
	// their age at the swap slightly underestimates, which only delays the
	// age-based auto-reinfer trigger by at most one training run.
	if s.pending > 0 {
		s.pendingSince = time.Now()
	} else {
		s.pendingSince = time.Time{}
	}
	s.publishCountsLocked()
	s.mu.Unlock()
	return nil
}

// argmaxProb reduces one candidate distribution to (predicted index, top-1
// probability): -1 for a candidate-less sample (nil distribution), otherwise
// the strict-> argmax — the same inference rule as LocMatcher.Predict.
func argmaxProb(probs []float64) (int, float64) {
	if len(probs) == 0 {
		return -1, 0
	}
	best := 0
	for i, p := range probs {
		if p > probs[best] {
			best = i
		}
	}
	return best, probs[best]
}

// addPendingLocked grows the pending-trip backlog, stamping the backlog's
// start time when it goes from empty to non-empty. Callers hold mu.
func (s *Shard) addPendingLocked(n int) {
	if s.pending == 0 {
		s.pendingSince = time.Now()
	}
	s.pending += n
}

// publish swaps a fully built serving state in with one pointer store.
// Readers racing the swap see either the old fallback chain or the new one
// in full, never a mix — a FrozenStore is immutable once frozen. After the
// swap, the outgoing frozen store is diffed against the incoming one into a
// churn report (kind: reinfer or restore) — off the serving path, which has
// already moved on.
func (s *Shard) publish(sv *serving, kind string) {
	old := s.frozen()
	s.sv.Store(sv)
	hotSwaps.Inc()
	s.churnReport(old, sv.frozen, kind)
}

// frozen returns the served frozen store, nil before the first swap — and a
// nil FrozenStore answers SourceNone, so cold reads need no branch of their
// own.
func (s *Shard) frozen() *deploy.FrozenStore {
	if sv := s.sv.Load(); sv != nil {
		return sv.frozen
	}
	return nil
}

// Query answers from the currently served frozen store: one atomic pointer
// load plus one map lookup, no locks and zero allocations. It returns
// SourceNone before the first completed re-inference or snapshot restore —
// queries never wait on retraining.
func (s *Shard) Query(addr model.AddressID) (geo.Point, deploy.Source) {
	a, _ := s.frozen().Lookup(addr)
	countQuery(a.Src)
	if a.Conf > 0 && a.Conf < s.lowConf {
		lowConfQueries.Inc()
	}
	return a.Loc, a.Src
}

// queryBatchChunk is how many keys a batch worker answers between
// cooperative ctx checks: large enough to amortize the check, small enough
// that cancellation lands promptly.
const queryBatchChunk = 512

// QueryBatchIdx answers addrs[i] into out[i] for each position i in idx (idx
// nil: all of addrs) from a single frozen-store load, leaving every other
// slot of out untouched — a sharded fan-out hands every backend the same
// addrs/out pair and disjoint idx sets. Per-source metrics are tallied
// locally and flushed in bulk so the per-key cost stays one map lookup; ctx
// is checked between chunks so a caller that gave up stops paying.
func (s *Shard) QueryBatchIdx(ctx context.Context, addrs []model.AddressID, idx []int32, out []deploy.BatchAnswer) error {
	f := s.frozen()
	var tally [deploy.SourceNone + 1]int64
	var lowConf int64
	n := len(addrs)
	if idx != nil {
		n = len(idx)
	}
	for base := 0; base < n; base += queryBatchChunk {
		if err := ctx.Err(); err != nil {
			flushQueryTally(&tally)
			lowConfQueries.Add(lowConf)
			return err
		}
		end := base + queryBatchChunk
		if end > n {
			end = n
		}
		if idx == nil {
			for i := base; i < end; i++ {
				a, _ := f.Lookup(addrs[i])
				out[i].Loc, out[i].Src = a.Loc, a.Src
				tally[a.Src]++
				if a.Conf > 0 && a.Conf < s.lowConf {
					lowConf++
				}
			}
		} else {
			for _, i := range idx[base:end] {
				a, _ := f.Lookup(addrs[i])
				out[i].Loc, out[i].Src = a.Loc, a.Src
				tally[a.Src]++
				if a.Conf > 0 && a.Conf < s.lowConf {
					lowConf++
				}
			}
		}
	}
	flushQueryTally(&tally)
	lowConfQueries.Add(lowConf)
	return nil
}

// Matcher returns the served trained model (nil before the first
// re-inference or restore without a saved model).
func (s *Shard) Matcher() *core.LocMatcher {
	if sv := s.sv.Load(); sv != nil {
		return sv.matcher
	}
	return nil
}

// Status summarizes the shard for the engine's health aggregation. Streams
// and the background job are the engine's; their fields stay zero here. It
// takes no exclusive lock: the read path calls it.
func (s *Shard) Status() deploy.EngineStatus {
	s.healthMu.RLock()
	out := deploy.EngineStatus{Reinfers: s.reinfers, Failed: s.failed, LastError: s.lastErr}
	s.healthMu.RUnlock()
	c := s.counts.Load()
	out.Dataset, out.Addresses, out.Trips, out.PendingTrips = c.name, c.addresses, c.trips, c.pending
	if c.pending > 0 && !c.pendingSince.IsZero() {
		out.PendingAgeSeconds = time.Since(c.pendingSince).Seconds()
	}
	if sv := s.sv.Load(); sv != nil {
		out.Ready = true
		out.Inferred = sv.frozen.Inferred()
		out.PoolLocations = sv.poolLocs
	}
	return out
}

// The remaining methods are the in-process hooks the owning engine drives
// beyond the ShardBackend seam.

func (s *Shard) setName(name string) {
	s.mu.Lock()
	s.name = name
	s.publishCountsLocked()
	s.mu.Unlock()
}

// addStreamedTrip installs one closed streamed trip into the accumulating
// dataset and queues its stay points for the next window seal. The engine
// owns the streamed window grid; the shard only holds what is pending.
func (s *Shard) addStreamedTrip(st *streamedTrip) {
	s.mu.Lock()
	s.builder.AppendTripStays(st.trip.Courier, st.stays)
	s.appendTripsLocked(st.trip)
	s.addPendingLocked(1)
	s.publishCountsLocked()
	s.mu.Unlock()
	ingestTrips.Inc()
}

// sealStreamWindow clusters the pending streamed trips into the pool as one
// window. Nothing pending is a no-op, so batch and streamed windows
// interleave without producing empty pool windows.
func (s *Shard) sealStreamWindow(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.builder.PendingTrips() == 0 {
		return
	}
	// SealWindow only errors on a cancelled context before doing anything;
	// streamed seals run to completion like the batch path's merge step.
	_ = s.builder.SealWindow(ctx)
	ingestWindows.Inc()
}

// pendingCount reports trips ingested since the served state was built; the
// engine sums it across shards for its backpressure bound.
func (s *Shard) pendingCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// setLCTotalTrips overrides the location-commonality trip universe for the
// next Reinfer. The engine sets the global distinct-trip count here so each
// shard's pipeline normalizes Equation (2) exactly like one global pipeline
// over all shards would.
func (s *Shard) setLCTotalTrips(n int) {
	s.mu.Lock()
	s.cfg.Core.LCTotalTrips = n
	s.mu.Unlock()
}
