package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dlinfma/internal/core"
	"dlinfma/internal/deploy"
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/engine"
	"dlinfma/internal/model"
	"dlinfma/internal/shard"
	"dlinfma/internal/synth"
)

// quickConfig caps training so lifecycle tests run in seconds.
func quickConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Matcher.MaxEpochs = 2
	cfg.Matcher.LR = 1e-3
	return cfg
}

// shardCounts are the topologies every shape-independent test runs over:
// the one-shard engine and a routed one.
var shardCounts = []int{1, 3}

// newTestEngine returns an empty engine over n shards: New for one, and for
// several a router at precision 8 (cells ~38 m x 19 m at the projector's
// equatorial anchor) so the tiny synthetic world actually spreads across
// shards instead of collapsing into one coarse cell.
func newTestEngine(t testing.TB, cfg engine.Config, n int) *engine.Engine {
	t.Helper()
	if n == 1 {
		return engine.New(cfg)
	}
	return engine.NewSharded(cfg, testRouter(t, n))
}

func testRouter(t testing.TB, n int) *shard.Router {
	t.Helper()
	r, err := shard.NewRouter(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// tinyShared memoizes the generated dataset and, per shard count, one fully
// re-inferred engine for the read-only tests (training each once keeps the
// package fast).
var tinyShared struct {
	mu      sync.Mutex
	ds      *model.Dataset
	engines map[int]*engine.Engine
}

func tinyEngineN(t *testing.T, n int) (*model.Dataset, *engine.Engine) {
	t.Helper()
	tinyShared.mu.Lock()
	defer tinyShared.mu.Unlock()
	if tinyShared.ds == nil {
		ds, _, err := synth.Generate(synth.Tiny())
		if err != nil {
			t.Fatal(err)
		}
		tinyShared.ds, tinyShared.engines = ds, map[int]*engine.Engine{}
	}
	if e := tinyShared.engines[n]; e != nil {
		return tinyShared.ds, e
	}
	e := newTestEngine(t, quickConfig(), n)
	if err := e.IngestDataset(context.Background(), tinyShared.ds); err != nil {
		t.Fatal(err)
	}
	if err := e.Reinfer(context.Background()); err != nil {
		t.Fatal(err)
	}
	tinyShared.engines[n] = e
	return tinyShared.ds, e
}

func tinyEngine(t *testing.T) (*model.Dataset, *engine.Engine) {
	t.Helper()
	return tinyEngineN(t, 1)
}

// servedMatcher returns a trained matcher some shard of e serves, or nil:
// the first one e's snapshot carries, as a restore would load it.
func servedMatcher(e *engine.Engine) *core.LocMatcher {
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		return nil
	}
	var doc struct {
		Matcher json.RawMessage
		Shards  []struct{ Matcher json.RawMessage }
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil
	}
	raws := []json.RawMessage{doc.Matcher}
	for _, sh := range doc.Shards {
		raws = append(raws, sh.Matcher)
	}
	for _, raw := range raws {
		if len(raw) > 0 && string(raw) != "null" {
			if m, err := core.LoadLocMatcher(bytes.NewReader(raw)); err == nil {
				return m
			}
		}
	}
	return nil
}

// forShardCounts runs f as one subtest per topology.
func forShardCounts(t *testing.T, f func(t *testing.T, n int)) {
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { f(t, n) })
	}
}

func deliveredAddr(t *testing.T, ds *model.Dataset) model.AddressID {
	t.Helper()
	for _, tr := range ds.Trips {
		if len(tr.Waybills) > 0 {
			return tr.Waybills[0].Addr
		}
	}
	t.Fatal("no delivered address")
	return 0
}

// TestLifecycle walks an engine from empty to serving, for one shard and for
// several; with several it also checks parity against the one-shard engine:
// the shards partition the addresses and their union serves the same set.
func TestLifecycle(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		ds, single := tinyEngine(t)
		e := newTestEngine(t, quickConfig(), n)
		defer e.Close()
		ctx := context.Background()

		if _, src := e.Query(deliveredAddr(t, ds)); src != deploy.SourceNone {
			t.Fatalf("empty engine answered with source %v", src)
		}
		if st := e.Status(); st.Ready {
			t.Fatal("empty engine reports ready")
		}
		if err := e.Reinfer(ctx); err == nil {
			t.Fatal("Reinfer on an empty engine must fail")
		}

		if err := e.IngestDataset(ctx, ds); err != nil {
			t.Fatal(err)
		}
		st := e.Status()
		// Trips replicate to every shard owning one of their addresses, so
		// several shards pend at least the dataset's trips; one pends exactly.
		if st.Ready || st.Addresses != len(ds.Addresses) || st.PendingTrips < len(ds.Trips) ||
			(n == 1 && st.PendingTrips != len(ds.Trips)) {
			t.Fatalf("post-ingest status %+v", st)
		}

		if err := e.Reinfer(ctx); err != nil {
			t.Fatal(err)
		}
		st = e.Status()
		if !st.Ready || st.Inferred == 0 || st.PoolLocations == 0 {
			t.Fatalf("post-reinfer status %+v", st)
		}
		if st.PendingTrips != 0 {
			t.Errorf("%d trips still pending after re-inference", st.PendingTrips)
		}
		if st.Reinfers != 1 {
			t.Errorf("Reinfers = %d, want 1", st.Reinfers)
		}
		if _, src := e.Query(deliveredAddr(t, ds)); src == deploy.SourceNone {
			t.Error("no answer for a delivered address after re-inference")
		}
		if servedMatcher(e) == nil {
			t.Error("no served matcher after re-inference")
		}
		// One serving state: the status count, the address-level answers
		// queries see, and the bulk dump all read the same frozen stores.
		atAddress := 0
		for _, a := range ds.Addresses {
			if _, src := e.Query(a.ID); src == deploy.SourceAddress {
				atAddress++
			}
		}
		if got := len(e.InferredLocations()); st.Inferred != atAddress || got != atAddress {
			t.Errorf("Status().Inferred = %d, %d address-level answers, %d InferredLocations", st.Inferred, atAddress, got)
		}

		if n == 1 {
			if len(st.Shards) != 0 {
				t.Errorf("one-shard status carries a %d-entry shard breakdown", len(st.Shards))
			}
			return
		}
		if len(st.Shards) != n {
			t.Fatalf("status lists %d shards, want %d", len(st.Shards), n)
		}
		sum := 0
		loaded := 0
		for i, sh := range st.Shards {
			if sh.Shard != i {
				t.Errorf("shard %d labelled %d", i, sh.Shard)
			}
			sum += sh.Addresses
			if sh.Addresses > 0 {
				loaded++
			}
		}
		if sum != st.Addresses {
			t.Errorf("per-shard addresses sum to %d, top-level says %d", sum, st.Addresses)
		}
		if loaded < 2 {
			t.Fatalf("only %d shards got addresses; routing collapsed", loaded)
		}

		// Every address the one-shard engine serves is served by exactly one
		// shard, and the union covers the same address set.
		orig := single.InferredLocations()
		locs := e.InferredLocations()
		if len(locs) != len(orig) {
			t.Fatalf("%d shards inferred %d addresses, one shard %d", n, len(locs), len(orig))
		}
		answered := 0
		for id := range orig {
			if _, src := e.Query(id); src != deploy.SourceNone {
				answered++
			}
		}
		if answered != len(orig) {
			t.Errorf("%d shards answered %d/%d addresses", n, answered, len(orig))
		}
		if _, src := e.Query(model.AddressID(1 << 30)); src != deploy.SourceNone {
			t.Error("unknown address got an answer")
		}
	})
}

// TestEngineFailedStatus pins the health semantics behind /healthz: a failed
// re-inference sets Failed/LastError, a cancellation does not touch them, and
// the next success clears them.
func TestEngineFailedStatus(t *testing.T) {
	ds, _ := tinyEngine(t)
	e := engine.New(quickConfig())
	defer e.Close()

	// Reinfer with nothing ingested is a real failure.
	if err := e.Reinfer(context.Background()); err == nil {
		t.Fatal("Reinfer on an empty engine must fail")
	}
	st := e.Status()
	if !st.Failed || st.LastError == "" {
		t.Fatalf("status after failed reinfer %+v", st)
	}

	if err := e.IngestDataset(context.Background(), ds); err != nil {
		t.Fatal(err)
	}

	// Cancellation is shutdown, not ill health: Failed stays as it was.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Reinfer(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Reinfer: %v", err)
	}
	if st := e.Status(); !st.Failed {
		t.Fatalf("cancellation overwrote the failure record: %+v", st)
	}

	// A successful run clears the record.
	if err := e.Reinfer(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = e.Status()
	if st.Failed || st.LastError != "" {
		t.Fatalf("status after successful reinfer %+v", st)
	}
}

func TestEngineReinferCancelled(t *testing.T) {
	ds, _ := tinyEngine(t)
	e := engine.New(quickConfig())
	defer e.Close()
	if err := e.IngestDataset(context.Background(), ds); err != nil {
		t.Fatal(err)
	}

	// Pre-cancelled: the first cooperative check aborts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Reinfer(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Reinfer: got %v, want context.Canceled", err)
	}

	// Cancelled mid-flight: featurization + training take well over 5 ms on
	// the tiny profile, so the cancel lands while compute is running.
	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	start := time.Now()
	err := e.Reinfer(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel: got %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled Reinfer took %v to return", d)
	}
	// The served state is untouched by the aborted runs.
	if st := e.Status(); st.Ready || st.Reinfers != 0 {
		t.Errorf("aborted re-inference leaked state: %+v", st)
	}
}

func TestEngineIngestCancelled(t *testing.T) {
	ds, _ := tinyEngine(t)
	e := engine.New(quickConfig())
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.Ingest(ctx, ds.Trips[:2], ds.Addresses, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if st := e.Status(); st.PendingTrips != 0 {
		t.Errorf("cancelled ingest left %d pending trips", st.PendingTrips)
	}
}

func TestEngineHotSwapUnderLoad(t *testing.T) {
	ds, _ := tinyEngine(t)
	e := engine.New(quickConfig())
	defer e.Close()
	ctx := context.Background()
	if err := e.IngestDataset(ctx, ds); err != nil {
		t.Fatal(err)
	}
	if err := e.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}
	addr := deliveredAddr(t, ds)
	if _, src := e.Query(addr); src == deploy.SourceNone {
		t.Fatal("no served answer before the swap test")
	}

	// Hammer Query from many goroutines while a full re-inference swaps the
	// serving state underneath them: every query must get an answer, before,
	// during, and after the swap (run with -race to check the lock domains).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, src := e.Query(addr); src == deploy.SourceNone {
					select {
					case errs <- errors.New("query lost its answer during hot swap"):
					default:
					}
					return
				}
			}
		}()
	}
	if err := e.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if st := e.Status(); st.Reinfers != 2 {
		t.Errorf("Reinfers = %d, want 2", st.Reinfers)
	}
	if _, src := e.Query(addr); src == deploy.SourceNone {
		t.Error("no answer after the swap")
	}
}

func TestBackgroundReinfer(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		ds, _ := tinyEngine(t)
		e := newTestEngine(t, quickConfig(), n)
		defer e.Close()
		if err := e.IngestDataset(context.Background(), ds); err != nil {
			t.Fatal(err)
		}
		if _, ok := e.ReinferStatus(); ok {
			t.Fatal("job status before any job")
		}
		job, err := e.StartReinfer()
		if err != nil {
			t.Fatal(err)
		}
		if job.State != api.JobRunning || job.ID != 1 {
			t.Fatalf("started job %+v", job)
		}
		// A second start while the first is in flight reports the running job.
		if again, err := e.StartReinfer(); !errors.Is(err, deploy.ErrReinferRunning) {
			t.Fatalf("concurrent StartReinfer: %+v, %v", again, err)
		} else if again.ID != job.ID {
			t.Fatalf("conflict reported job %d, want %d", again.ID, job.ID)
		}

		deadline := time.After(2 * time.Minute)
		for {
			js, ok := e.ReinferStatus()
			if !ok {
				t.Fatal("job status vanished")
			}
			if js.State == api.JobDone {
				if js.Inferred == 0 {
					t.Errorf("finished job inferred nothing: %+v", js)
				}
				break
			}
			if js.State == api.JobFailed {
				t.Fatalf("background job failed: %s", js.Error)
			}
			select {
			case <-deadline:
				t.Fatal("background re-inference did not finish")
			case <-time.After(20 * time.Millisecond):
			}
		}
		if st := e.Status(); !st.Ready || st.ReinferRunning {
			t.Errorf("status after background job %+v", st)
		}
	})
}

// TestCloseJoinsBackgroundJob: Close cancels the root context and joins the
// in-flight job before returning, so afterwards the job is settled — aborted
// by the cancel, or done if it beat it — and no goroutine can swap state
// anymore.
func TestCloseJoinsBackgroundJob(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		ds, _ := tinyEngine(t)
		e := newTestEngine(t, quickConfig(), n)
		if err := e.IngestDataset(context.Background(), ds); err != nil {
			t.Fatal(err)
		}
		job, err := e.StartReinfer()
		if err != nil {
			t.Fatal(err)
		}
		if job.State != api.JobRunning {
			t.Fatalf("started job %+v", job)
		}
		e.Close()
		js, ok := e.ReinferStatus()
		if !ok || js.State == api.JobRunning {
			t.Fatalf("job still running after Close: %+v", js)
		}
		// Idempotent enough for deferred cleanup paths.
		done := make(chan struct{})
		go func() { e.Close(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("second Close hung")
		}
	})
}

func TestSnapshotRoundTrip(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		ds, e := tinyEngineN(t, n)
		var buf bytes.Buffer
		if err := e.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}

		restored := newTestEngine(t, quickConfig(), n)
		defer restored.Close()
		if err := restored.WriteSnapshot(&bytes.Buffer{}); err == nil {
			t.Fatal("snapshot of an empty engine must fail")
		}
		if err := restored.RestoreSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}

		st := restored.Status()
		if !st.Ready || st.Inferred != e.Status().Inferred || st.Addresses != len(ds.Addresses) {
			t.Fatalf("restored status %+v vs original %+v", st, e.Status())
		}
		if servedMatcher(restored) == nil {
			t.Error("trained matcher lost in the snapshot round trip")
		}
		// Every served location survives bit-for-bit.
		orig, rest := e.InferredLocations(), restored.InferredLocations()
		if len(rest) != len(orig) {
			t.Fatalf("restored %d locations, want %d", len(rest), len(orig))
		}
		for id, p := range orig {
			if rest[id] != p {
				t.Fatalf("address %d restored at %v, want %v", id, rest[id], p)
			}
		}
		addr := deliveredAddr(t, ds)
		a, asrc := e.Query(addr)
		b, bsrc := restored.Query(addr)
		if a != b || asrc != bsrc {
			t.Errorf("query diverges after restore: %v/%v vs %v/%v", a, asrc, b, bsrc)
		}

		if err := restored.RestoreSnapshot(bytes.NewReader([]byte("{bad"))); err == nil {
			t.Error("corrupt snapshot accepted")
		}
		if err := restored.RestoreSnapshot(strings.NewReader(`{"version":9}`)); err == nil {
			t.Error("unknown snapshot version accepted")
		}
		if n == 1 {
			return
		}
		// Topology guards: a manifest only fits the shard count it was
		// written with.
		wrongN := newTestEngine(t, quickConfig(), n-1)
		defer wrongN.Close()
		if err := wrongN.RestoreSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("%d-shard manifest accepted by a %d-shard engine", n, n-1)
		}
		single := engine.New(quickConfig())
		defer single.Close()
		if err := single.RestoreSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
			t.Error("sharded manifest accepted by a one-shard engine")
		}
	})
}

// TestSnapshotFile: at every shard count a save leaves one file, path, and
// that file restores to the engine's answers. Several shards' file is the
// manifest GET /v1/snapshot streams, except that each shard document carries
// the trips its served state was trained on.
func TestSnapshotFile(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			_, e := tinyEngineN(t, n)
			dir := t.TempDir()
			path := filepath.Join(dir, "state.json")
			if err := e.SaveSnapshotFile(path); err != nil {
				t.Fatal(err)
			}
			names, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 1 || names[0].Name() != "state.json" {
				t.Fatalf("the save left %d files in its directory, want just %s", len(names), path)
			}

			restored := newTestEngine(t, quickConfig(), n)
			defer restored.Close()
			if err := restored.LoadSnapshotFile(path); err != nil {
				t.Fatal(err)
			}
			if got, want := restored.InferredLocations(), e.InferredLocations(); len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("file round trip restored %d answers, the engine serves %d (or they differ)", len(got), len(want))
			}
			if err := restored.LoadSnapshotFile(path + ".missing"); err == nil {
				t.Error("missing snapshot file accepted")
			}
			if n == 1 {
				return
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var m struct {
				Version int               `json:"version"`
				Shards  []json.RawMessage `json:"shards"`
			}
			if err := json.Unmarshal(b, &m); err != nil {
				t.Fatal(err)
			}
			st := e.Status()
			if m.Version != 2 || len(m.Shards) != n || len(st.Shards) != n {
				t.Fatalf("a %d-shard file is version %d with %d shard documents", n, m.Version, len(m.Shards))
			}
			for i, raw := range m.Shards {
				var doc struct {
					Trips int `json:"trips"`
				}
				if err := json.Unmarshal(raw, &doc); err != nil {
					t.Fatal(err)
				}
				trained := st.Shards[i].Trips - st.Shards[i].PendingTrips
				if trained == 0 || doc.Trips != trained {
					t.Errorf("shard %d's document says it was trained on %d trips, the shard on %d", i, doc.Trips, trained)
				}
			}
		})
	}
}

// TestOneShardMatchesDirectPipeline pins what the one-shard engine computes
// against an independent reference: core.NewPipeline — what eval, the
// baselines and the examples call — then BuildSamplesCtx, LabelSamples, Fit,
// ProbabilitiesAll by hand, with the same config on the same seeded dataset,
// must yield exactly the locations the engine serves.
func TestOneShardMatchesDirectPipeline(t *testing.T) {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.Core.Workers = 1 // one deterministic float-accumulation order on both sides
	ctx := context.Background()

	e := engine.New(cfg)
	defer e.Close()
	if err := e.IngestDataset(ctx, ds); err != nil {
		t.Fatal(err)
	}
	if err := e.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}

	pipe, err := core.NewPipeline(ctx, ds, cfg.Core)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]model.AddressID, len(ds.Addresses))
	for i, a := range ds.Addresses {
		ids[i] = a.ID
	}
	samples, err := pipe.BuildSamplesCtx(ctx, ids, cfg.Sample)
	if err != nil {
		t.Fatal(err)
	}
	core.LabelSamples(samples, ds.Truth)
	var labelled []*core.Sample
	for _, s := range samples {
		if s.Label >= 0 {
			labelled = append(labelled, s)
		}
	}
	nVal := int(float64(len(labelled)) * cfg.ValFraction)
	mcfg := cfg.Matcher
	mcfg.Workers = cfg.Core.Workers
	matcher := core.NewLocMatcher(mcfg)
	if _, err := matcher.Fit(ctx, labelled[nVal:], labelled[:nVal]); err != nil {
		t.Fatal(err)
	}
	probs, err := matcher.ProbabilitiesAll(ctx, samples)
	if err != nil {
		t.Fatal(err)
	}

	served := e.InferredLocations()
	if len(served) != len(samples) {
		t.Fatalf("engine serves %d locations, reference inferred %d", len(served), len(samples))
	}
	picked := 0
	for i, s := range samples {
		pred := -1
		for j, p := range probs[i] {
			if pred < 0 || p > probs[i][pred] {
				pred = j
			}
		}
		want := s.PredictedLocation(pred)
		if got := served[s.Addr]; got != want {
			t.Fatalf("address %d: engine serves %v, direct pipeline infers %v", s.Addr, got, want)
		}
		if got, src := e.Query(s.Addr); got != want || src != deploy.SourceAddress {
			t.Fatalf("address %d: Query = %v/%v, want %v at the address level", s.Addr, got, src, want)
		}
		if pred >= 0 {
			picked++
		}
	}
	if picked == 0 {
		t.Fatal("reference picked no candidate anywhere; the comparison is vacuous")
	}
}

// TestParentV1SnapshotRestores loads testdata/snapshot_v1.json — a version-1
// snapshot of the trained tiny dataset, written by the last commit that still
// had a separate single-engine type — into a one-shard and a three-shard
// engine. Every inferred address answers identically on both, and the
// one-shard engine writes version 1 again — without a confidences field, the
// fixture having none — restoring to the same answers at every level: a
// building's majority is a function of the votes, not of the order a restore
// happens to replay them in. (Several shards each compute majorities over
// their own slice of a building, so fallback answers are not compared across
// topologies.)
func TestParentV1SnapshotRestores(t *testing.T) {
	doc, err := os.ReadFile("testdata/snapshot_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	var fixture struct {
		Addresses []model.AddressInfo
		Locations map[string][2]float64
	}
	if err := json.Unmarshal(doc, &fixture); err != nil {
		t.Fatal(err)
	}
	if len(fixture.Addresses) == 0 || len(fixture.Locations) == 0 {
		t.Fatal("fixture carries no addresses or no locations")
	}

	engines := map[int]*engine.Engine{}
	for _, n := range shardCounts {
		e := newTestEngine(t, quickConfig(), n)
		defer e.Close()
		if err := e.RestoreSnapshot(bytes.NewReader(doc)); err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		if servedMatcher(e) == nil {
			t.Errorf("shards=%d: the fixture's trained matcher was not restored", n)
		}
		engines[n] = e
	}
	var out bytes.Buffer
	if err := engines[1].WriteSnapshot(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out.Bytes(), []byte(`{"version":1,`)) {
		t.Fatalf("one-shard snapshot is not a version-1 document: %.40s", out.Bytes())
	}
	if bytes.Contains(out.Bytes(), []byte(`"confidences"`)) {
		t.Fatal("a store without confidence stamps wrote a confidences field")
	}
	rewritten := engine.New(quickConfig())
	defer rewritten.Close()
	if err := rewritten.RestoreSnapshot(&out); err != nil {
		t.Fatal(err)
	}
	fallbacks := 0

	for _, a := range fixture.Addresses {
		want, wantSrc := engines[1].Query(a.ID)
		if wantSrc == deploy.SourceNone {
			t.Fatalf("address %d unanswered after restore", a.ID)
		}
		if xy, inferred := fixture.Locations[fmt.Sprint(a.ID)]; inferred {
			if wantSrc != deploy.SourceAddress || want.X != xy[0] || want.Y != xy[1] {
				t.Fatalf("address %d: %v/%v, fixture says %v at the address level", a.ID, want, wantSrc, xy)
			}
			if got, src := engines[3].Query(a.ID); got != want || src != wantSrc {
				t.Fatalf("address %d: three shards answer %v/%v, one shard %v/%v", a.ID, got, src, want, wantSrc)
			}
			if got, src := rewritten.Query(a.ID); got != want || src != wantSrc {
				t.Fatalf("address %d: %v/%v after the version-1 rewrite, want %v/%v", a.ID, got, src, want, wantSrc)
			}
		} else {
			fallbacks++
			if got, src := rewritten.Query(a.ID); got != want || src != wantSrc {
				t.Fatalf("address %d: fallback answer %v/%v after the version-1 rewrite, want %v/%v", a.ID, got, src, want, wantSrc)
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("fixture has no address answered by a fallback; the comparison is vacuous")
	}
}
