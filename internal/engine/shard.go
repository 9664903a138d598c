package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"dlinfma/internal/core"
	"dlinfma/internal/deploy"
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/obs"
	"dlinfma/internal/obs/trace"
)

// serving is what a shard publishes at a hot swap, immutable from then on:
// the frozen store every query, status report, churn diff, and snapshot write
// reads, the matcher that produced it, the size of the candidate pool it
// was inferred from (0 after a restore: a snapshot carries no pool), and how
// many of the shard's trips, the first ones in ingest order, it was trained
// on (0 when unknown: a restore from a document that does not say).
type serving struct {
	frozen   *deploy.FrozenStore
	matcher  *core.LocMatcher
	poolLocs int
	trips    int
}

// Shard is the in-process peer.ShardBackend: one region's evidence, trained
// model, frozen store, and swap ring. It makes no lifecycle decisions —
// courier streams, trip delivery, the WAL, backpressure, the background
// job, and the snapshot layout all belong to the Engine that owns it — and
// is only ever constructed by one.
//
// Its locks are its evidence's: mu over intake, never held across
// clustering, and the sealer, which owns the pool builder from a window's
// cut until it is sealed and a re-inference holds across finalizing the
// pool. Everything else is read with one atomic load: the served state, the
// counts the evidence publishes on every change, and the record of the last
// re-inference — so queries, Status, backpressure and snapshot writes never
// wait for a window.
type Shard struct {
	cfg Config
	log *obs.Logger
	// ev is everything ingested so far: trips, addresses, truth and pool.
	ev *evidence
	// lcTotalTrips is the trip universe the next Reinfer normalizes Equation
	// (2) by: cfg's own, or the global distinct trip count the engine pins so
	// that every shard normalizes like one global pipeline would.
	lcTotalTrips atomic.Int64

	// sv is the served state, republished whole at every hot swap. Query
	// loads the pointer and probes one table — no locks, no allocations.
	// nil until the first swap.
	sv atomic.Pointer[serving]

	// reinfers counts the re-inferences that swapped. lastErr is the message
	// of the most recent attempt when it errored, nil after a success; a
	// cancellation is an orderly shutdown, not ill health, and leaves it be.
	reinfers atomic.Int64
	lastErr  atomic.Pointer[string]

	// label tags this shard's quality metrics and swap reports: "global" for
	// the only shard of a one-shard engine, the shard index otherwise.
	label string
	// lowConf is the resolved Config.LowConfidence threshold the read path
	// compares answer confidence against.
	lowConf float32
	// swaps rings the last swapHistory hot-swap churn reports.
	swaps *swapRing
}

func newShard(cfg Config, label string, log *obs.Logger) *Shard {
	lowConf := cfg.LowConfidence
	if lowConf <= 0 {
		lowConf = defaultLowConfidence
	}
	s := &Shard{
		cfg:     cfg,
		log:     log,
		ev:      newEvidence(cfg.Core),
		label:   label,
		lowConf: float32(lowConf),
		swaps:   newSwapRing(swapHistory),
	}
	s.lcTotalTrips.Store(int64(cfg.Core.LCTotalTrips))
	return s
}

// Reinfer runs the full second stage over everything ingested so far:
// finalize the incremental pool, featurize every address, train a fresh
// LocMatcher, predict every address, and atomically swap the new serving
// state (frozen store, model) into service. Queries keep hitting the old
// state until the swap. Cancelling ctx aborts at the next cooperative
// check and leaves the served state untouched.
func (s *Shard) Reinfer(ctx context.Context) error {
	ctx, tsp := trace.Start(ctx, "engine.reinfer")
	sp := obs.StartSpan(reinferDuration)
	err := s.reinfer(ctx)
	tsp.RecordError(err)
	tsp.End()
	d := sp.End()
	log := s.log.WithTrace(ctx)
	switch {
	case err == nil:
		reinferSuccess.Inc()
		s.lastErr.Store(nil)
		log.Info("reinfer done", "dur", d)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Shutdown or deadline, not ill health: the served state is intact
		// and the shard is as healthy as it was before the attempt.
		reinferCanceled.Inc()
		log.Warn("reinfer canceled", "dur", d, "err", err)
	default:
		reinferFailure.Inc()
		msg := err.Error()
		s.lastErr.Store(&msg)
		log.Error("reinfer failed", "dur", d, "err", err)
	}
	return err
}

// errNoTrips fails a re-inference with nothing to train on.
var errNoTrips = errors.New("engine: no trips ingested")

func (s *Shard) reinfer(ctx context.Context) error {
	ds, pool, nTrips, err := s.ev.view(ctx)
	if err != nil {
		return err
	}
	cfg := s.cfg
	cfg.Core.LCTotalTrips = int(s.lcTotalTrips.Load())

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
	// The full probability distributions, not just the picks: the top-1
	// probability is the confidence stamp behind each served answer, and
	// core.Pick is Predict's own rule, so the picks are Predict's.
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
		pred, conf := core.Pick(probs[i])
		if pred < 0 {
			// No candidate: the frozen fallback chain answers, and says so.
			continue
		}
		store.Put(sm.Addr, sm.PredictedLocation(pred))
		store.SetConfidence(sm.Addr, float32(conf))
		confHist.Observe(conf)
	}

	_, swapSp := trace.Start(ctx, "engine.hot_swap")
	s.publish(&serving{frozen: freeze(store), matcher: matcher, poolLocs: len(pool.Locations), trips: nTrips}, swapKindReinfer)
	s.reinfers.Add(1)
	swapSp.End()
	s.ev.served(nTrips)
	return nil
}

// freeze returns the frozen form of the store a swap is about to publish,
// timed as the freeze stage.
func freeze(store *deploy.Store) *deploy.FrozenStore {
	t0 := time.Now()
	f := store.Freeze()
	core.StageFreeze.Record(time.Since(t0))
	return f
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
// load plus one table probe, no locks and zero allocations, and never an
// error — an in-process shard has no hop to fail. It returns SourceNone
// before the first completed re-inference or snapshot restore — queries
// never wait on retraining.
func (s *Shard) Query(_ context.Context, addr model.AddressID) (geo.Point, deploy.Source, error) {
	a, _ := s.frozen().Lookup(addr)
	countQuery(a.Src)
	if a.Conf > 0 && a.Conf < s.lowConf {
		lowConfQueries.Inc()
	}
	return a.Loc, a.Src, nil
}

// queryBatchChunk is how many keys a batch worker answers between
// cooperative ctx checks: large enough to amortize the check, small enough
// that cancellation lands promptly.
const queryBatchChunk = 512

// QueryBatchIdx answers addrs[i] into out[i] for each position i in idx (idx
// nil: all of addrs) from a single frozen-store load, leaving every other
// slot of out untouched — a sharded fan-out hands every backend the same
// addrs/out pair and disjoint idx sets. Per-source metrics are tallied
// locally and flushed in bulk so the per-key cost stays one table probe; ctx
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

// Status summarizes the shard for the engine's health aggregation. Streams
// and the background job are the engine's; their fields stay zero here. It
// takes no lock: the read path calls it.
func (s *Shard) Status() api.EngineStatus {
	c := s.ev.counts.Load()
	out := api.EngineStatus{Dataset: c.name, Addresses: len(c.addrs), Trips: c.trips,
		PendingTrips: c.pending, Reinfers: int(s.reinfers.Load())}
	if msg := s.lastErr.Load(); msg != nil {
		out.Failed, out.LastError = true, *msg
	}
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
