package peer_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dlinfma/internal/deploy"
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/engine"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/obs"
	"dlinfma/internal/obs/trace"
	"dlinfma/internal/peer"
	"dlinfma/internal/shard"
	"dlinfma/internal/synth"
)

// quickCfg caps training so lifecycle tests run in seconds and pins the
// LC-normalization trip universe: automatic pinning cannot cross the wire
// (see engine.NewShardedBackends), so bit-identical local-vs-remote features
// require the explicit count on both sides.
func quickCfg(totalTrips int) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Matcher.MaxEpochs = 2
	cfg.Matcher.LR = 1e-3
	cfg.Core.Workers = 1
	cfg.Matcher.Workers = 1
	cfg.Core.LCTotalTrips = totalTrips
	return cfg
}

// shardProc is one simulated shard process: a single engine behind the real
// /v1 HTTP service, with its own tracer so cross-process trace parenting is
// observable.
type shardProc struct {
	eng    *engine.Engine
	tracer *trace.Tracer
	srv    *httptest.Server
}

func newShardProc(t *testing.T, cfg engine.Config) *shardProc {
	t.Helper()
	p := &shardProc{
		eng:    engine.New(cfg),
		tracer: trace.NewTracer(trace.Options{SampleProb: 1, Store: trace.NewStore(64)}),
	}
	p.srv = httptest.NewServer(deploy.NewService(p.eng, deploy.Options{Tracer: p.tracer}))
	t.Cleanup(func() {
		p.srv.Close()
		p.eng.Close()
	})
	return p
}

func tinyDataset(t *testing.T) *model.Dataset {
	t.Helper()
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func newRouter(t *testing.T, n int) *shard.Router {
	t.Helper()
	r, err := shard.NewRouter(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestHTTPBackendShardedEquivalence is the acceptance gate of the backend
// seam: a sharded engine whose shards sit behind HTTP loopback backends must
// answer bit-identically to the fully in-process sharded engine — single
// queries, batch queries, and the per-shard health breakdown.
func TestHTTPBackendShardedEquivalence(t *testing.T) {
	const nShards = 3
	ctx := context.Background()
	ds := tinyDataset(t)
	cfg := quickCfg(len(ds.Trips))

	local := engine.NewSharded(cfg, newRouter(t, nShards))
	defer local.Close()

	procs := make([]*shardProc, nShards)
	backends := make([]peer.ShardBackend, nShards)
	for i := range procs {
		procs[i] = newShardProc(t, cfg)
		c, err := peer.NewClient(peer.ClientOptions{Endpoints: []string{procs[i].srv.URL}})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = c
	}
	remote, err := engine.NewShardedBackends(cfg, newRouter(t, nShards), backends)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	for _, e := range []engine.Runtime{local, remote} {
		if err := e.IngestDataset(ctx, ds); err != nil {
			t.Fatal(err)
		}
		if err := e.Reinfer(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// Single-key reads: every known address plus misses must agree exactly.
	keys := make([]model.AddressID, 0, len(ds.Addresses)+2)
	for _, a := range ds.Addresses {
		keys = append(keys, a.ID)
	}
	keys = append(keys, model.AddressID(1<<30), model.AddressID(1<<30+1))
	served := 0
	for _, id := range keys {
		lp, ls := local.Query(id)
		rp, rs := remote.Query(id)
		if lp != rp || ls != rs {
			t.Fatalf("addr %d: local (%v, %v) != remote (%v, %v)", id, lp, ls, rp, rs)
		}
		if ls != deploy.SourceNone {
			served++
		}
	}
	if served == 0 {
		t.Fatal("no address answered; equivalence is vacuous")
	}

	// Batch reads share one scatter across shards on both sides.
	lout, err := local.QueryBatch(ctx, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	rout, err := remote.QueryBatch(ctx, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lout) != len(rout) {
		t.Fatalf("batch sizes differ: %d vs %d", len(lout), len(rout))
	}
	for i := range lout {
		if lout[i] != rout[i] {
			t.Fatalf("batch[%d] (addr %d): local %+v != remote %+v", i, keys[i], lout[i], rout[i])
		}
	}

	// The /healthz shard breakdown must describe the same cluster.
	lst, rst := local.Status(), remote.Status()
	if lst.Ready != rst.Ready || lst.Addresses != rst.Addresses || lst.Inferred != rst.Inferred ||
		lst.PendingTrips != rst.PendingTrips || lst.Trips != rst.Trips {
		t.Fatalf("top-level status differs:\nlocal  %+v\nremote %+v", lst, rst)
	}
	if len(lst.Shards) != nShards || len(rst.Shards) != nShards {
		t.Fatalf("shard breakdown sizes: local %d, remote %d", len(lst.Shards), len(rst.Shards))
	}
	for i := range lst.Shards {
		l, r := lst.Shards[i], rst.Shards[i]
		if l.Shard != r.Shard || l.Ready != r.Ready || l.Failed != r.Failed ||
			l.Addresses != r.Addresses || l.Inferred != r.Inferred ||
			l.PoolLocations != r.PoolLocations || l.PendingTrips != r.PendingTrips ||
			l.Reinfers != r.Reinfers || l.Trips != r.Trips {
			t.Fatalf("shard %d status differs:\nlocal  %+v\nremote %+v", i, l, r)
		}
		if r.Peer != procs[i].srv.URL {
			t.Fatalf("shard %d peer = %q, want %q", i, r.Peer, procs[i].srv.URL)
		}
		if l.Peer != "" {
			t.Fatalf("local shard %d unexpectedly reports peer %q", i, l.Peer)
		}
	}

	// The remote manifest, assembled from the shard processes' /v1/snapshot
	// downloads, restores the same served state as the local one.
	inferred := func(e engine.Runtime) map[model.AddressID]geo.Point {
		t.Helper()
		var buf bytes.Buffer
		if err := e.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		fresh := engine.NewSharded(cfg, newRouter(t, nShards))
		defer fresh.Close()
		if err := fresh.RestoreSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return fresh.InferredLocations()
	}
	lsnap, rsnap := inferred(local), inferred(remote)
	if len(lsnap) == 0 || !reflect.DeepEqual(lsnap, rsnap) {
		t.Fatalf("snapshot restores differ: local %d answers, remote %d", len(lsnap), len(rsnap))
	}
}

// TestClientReplicatedWritesAndFailover drives one shard through a
// two-endpoint client: ingest and reinfer must replicate to both endpoints,
// and killing the owner must leave reads answering from the replica.
func TestClientReplicatedWritesAndFailover(t *testing.T) {
	ctx := context.Background()
	ds := tinyDataset(t)
	cfg := quickCfg(len(ds.Trips))
	owner := newShardProc(t, cfg)
	replica := newShardProc(t, cfg)

	c, err := peer.NewClient(peer.ClientOptions{
		Endpoints: []string{owner.srv.URL, replica.srv.URL},
		Timeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(ctx, ds.Trips, ds.Addresses, ds.Truth); err != nil {
		t.Fatal(err)
	}
	if got, want := owner.eng.Status().Trips, len(ds.Trips); got != want {
		t.Fatalf("owner holds %d trips, want %d", got, want)
	}
	if got, want := replica.eng.Status().Trips, len(ds.Trips); got != want {
		t.Fatalf("replica holds %d trips, want %d", got, want)
	}
	if err := c.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}

	// Both replicas trained on identical data: answers agree before the
	// failure, so post-failover reads are indistinguishable.
	answers := map[model.AddressID]struct {
		p   [2]float64
		src deploy.Source
	}{}
	served := 0
	for _, a := range ds.Addresses {
		p, src, err := c.Query(ctx, a.ID)
		if err != nil {
			t.Fatal(err)
		}
		answers[a.ID] = struct {
			p   [2]float64
			src deploy.Source
		}{[2]float64{p.X, p.Y}, src}
		if src != deploy.SourceNone {
			served++
		}
	}
	if served == 0 {
		t.Fatal("nothing served before failover")
	}

	owner.srv.Close() // the shard owner dies

	for _, a := range ds.Addresses {
		p, src, err := c.Query(ctx, a.ID)
		if err != nil {
			t.Fatalf("addr %d after failover: %v", a.ID, err)
		}
		want := answers[a.ID]
		if [2]float64{p.X, p.Y} != want.p || src != want.src {
			t.Fatalf("addr %d after failover: (%v, %v), want (%v, %v)", a.ID, p, src, want.p, want.src)
		}
	}
	st := c.Status()
	if st.Failed || !st.Ready {
		t.Fatalf("replica status after failover: %+v", st)
	}
	var snap bytes.Buffer
	if err := c.WriteSnapshot(&snap); err != nil || snap.Len() == 0 {
		t.Fatalf("snapshot after failover: %d bytes, error %v", snap.Len(), err)
	}

	replica.srv.Close() // and then the whole shard is gone
	if st := c.Status(); !st.Failed || st.LastError == "" {
		t.Fatalf("status with no endpoints alive should report failure, got %+v", st)
	}
	if _, src, err := c.Query(ctx, ds.Addresses[0].ID); err == nil || src != deploy.SourceNone {
		t.Fatalf("query with no endpoints alive answered source %v, error %v; want SourceNone and an error", src, err)
	}
}

// counter reads one unlabelled counter of the process-wide registry; tests
// compare two reads, never an absolute value.
func counter(t *testing.T, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := fams[name]
	if f == nil || len(f.Samples) != 1 {
		t.Fatalf("counter %s: %+v", name, f)
	}
	return f.Samples[0].Value
}

// TestClientFailoverCounters pins the counters to the attempts the one retry
// loop makes, reads and writes alike: over [dead, live] with one retry, a
// query's second attempt answers, and an ingest drives the dead endpoint
// twice before giving it up.
func TestClientFailoverCounters(t *testing.T) {
	ctx := context.Background()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	live := newShardProc(t, quickCfg(0))
	c, err := peer.NewClient(peer.ClientOptions{
		Endpoints: []string{dead.URL, live.srv.URL},
		Retries:   1,
		Timeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		failovers  = "dlinfma_cluster_rpc_failovers_total"
		feFailover = "dlinfma_cluster_frontend_failovers_total"
		peerErrors = "dlinfma_cluster_frontend_peer_errors_total"
	)
	read := func() [3]float64 {
		return [3]float64{counter(t, failovers), counter(t, feFailover), counter(t, peerErrors)}
	}

	before := read()
	if _, _, err := c.Query(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := read(), [3]float64{before[0] + 1, before[1] + 1, before[2]}; got != want {
		t.Fatalf("query over [dead, live]: (failovers, frontend failovers, peer errors) = %v, want %v", got, want)
	}

	before = read()
	if err := c.Ingest(ctx, nil, nil, nil); err == nil || !strings.Contains(err.Error(), dead.URL) {
		t.Fatalf("ingest with a dead replica: error %v, want one naming %s", err, dead.URL)
	}
	if got, want := read(), [3]float64{before[0] + 1, before[1], before[2] + 1}; got != want {
		t.Fatalf("ingest over [dead, live]: (failovers, frontend failovers, peer errors) = %v, want %v", got, want)
	}
}

// TestFrontendTraceParenting asserts the request-scoped tracing contract
// across the shard hop: the frontend's outbound client span must appear as
// the parent of the remote shard's server-side root span, in the shard's own
// /v1/debug/traces buffer.
func TestFrontendTraceParenting(t *testing.T) {
	ctx := context.Background()
	ds := tinyDataset(t)
	cfg := quickCfg(len(ds.Trips))
	proc := newShardProc(t, cfg)

	router := newRouter(t, 1)
	backends, _, err := peer.NewFrontendBackends(router, peer.FrontendOptions{
		Peers: []string{proc.srv.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	feTracer := trace.NewTracer(trace.Options{SampleProb: 1, Store: trace.NewStore(64)})
	feCfg := cfg
	feCfg.Tracer = feTracer
	fe, err := engine.NewShardedBackends(feCfg, router, backends)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	feSrv := httptest.NewServer(deploy.NewService(fe, deploy.Options{Tracer: feTracer}))
	defer feSrv.Close()

	if err := fe.IngestDataset(ctx, ds); err != nil {
		t.Fatal(err)
	}
	if err := fe.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}
	var addr model.AddressID
	found := false
	for _, a := range ds.Addresses {
		if _, src := fe.Query(a.ID); src != deploy.SourceNone {
			addr, found = a.ID, true
			break
		}
	}
	if !found {
		t.Fatal("no servable address")
	}

	resp, err := http.Get(feSrv.URL + "/v1/locations/" + addrKey(addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frontend query answered %d", resp.StatusCode)
	}

	// The frontend trace: a /v1/locations/{key} root with a cluster.rpc
	// child carrying the outbound hop.
	var rpcSpan, feRoot *trace.SpanData
	var feTrace *trace.Trace
	for _, tr := range feTracer.Store().List(trace.Filter{}) {
		for i := range tr.Spans {
			sp := &tr.Spans[i]
			if sp.Name == "cluster.rpc" {
				rpcSpan, feTrace = sp, tr
			}
			if sp.Name == "/v1/locations/{key}" {
				feRoot = sp
			}
		}
		if rpcSpan != nil {
			break
		}
	}
	if rpcSpan == nil || feRoot == nil {
		t.Fatal("frontend trace is missing the cluster.rpc hop or its root")
	}
	if rpcSpan.ParentID != feRoot.SpanID {
		t.Fatalf("cluster.rpc parent = %q, want frontend root %q", rpcSpan.ParentID, feRoot.SpanID)
	}

	// The shard's server span: same trace id, parented under the frontend's
	// outbound client span.
	var shardRoot *trace.SpanData
	for _, tr := range proc.tracer.Store().List(trace.Filter{}) {
		if tr.ID != feTrace.ID {
			continue
		}
		for i := range tr.Spans {
			if tr.Spans[i].Name == "/v1/locations/{key}" {
				shardRoot = &tr.Spans[i]
			}
		}
	}
	if shardRoot == nil {
		t.Fatalf("shard never recorded a server span for trace %s", feTrace.ID)
	}
	if shardRoot.ParentID != rpcSpan.SpanID {
		t.Fatalf("shard server span parent = %q, want frontend client span %q", shardRoot.ParentID, rpcSpan.SpanID)
	}
}

// TestFrontendRingFailover is the in-process twin of the cluster smoke
// script: two peers, replication 2, every shard's writes on both; killing a
// peer must leave every answer intact through ring-ordered failover.
func TestFrontendRingFailover(t *testing.T) {
	const nShards = 4
	ctx := context.Background()
	ds := tinyDataset(t)
	cfg := quickCfg(len(ds.Trips))
	peerA := newShardProc(t, cfg)
	peerB := newShardProc(t, cfg)

	router := newRouter(t, nShards)
	backends, ring, err := peer.NewFrontendBackends(router, peer.FrontendOptions{
		Peers:       []string{peerA.srv.URL, peerB.srv.URL},
		Replication: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := engine.NewShardedBackends(cfg, router, backends)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	if err := fe.IngestDataset(ctx, ds); err != nil {
		t.Fatal(err)
	}
	if err := fe.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}

	type answer struct {
		p   [2]float64
		src deploy.Source
	}
	before := map[model.AddressID]answer{}
	served := 0
	for _, a := range ds.Addresses {
		p, src := fe.Query(a.ID)
		before[a.ID] = answer{[2]float64{p.X, p.Y}, src}
		if src != deploy.SourceNone {
			served++
		}
	}
	if served == 0 {
		t.Fatal("nothing served before the kill")
	}

	// Kill the peer owning shard 0 — replicas own the rest of the walk.
	victim := ring.ShardOwners(0, 1)[0]
	if victim == peerA.srv.URL {
		peerA.srv.Close()
	} else {
		peerB.srv.Close()
	}

	for _, a := range ds.Addresses {
		p, src := fe.Query(a.ID)
		if got := (answer{[2]float64{p.X, p.Y}, src}); got != before[a.ID] {
			t.Fatalf("addr %d after killing %s: %+v, want %+v", a.ID, victim, got, before[a.ID])
		}
	}
	// Batch reads fail over chunk by chunk too.
	keys := make([]model.AddressID, 0, len(ds.Addresses))
	for _, a := range ds.Addresses {
		keys = append(keys, a.ID)
	}
	out, err := fe.QueryBatch(ctx, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range keys {
		if got := (answer{[2]float64{out[i].Loc.X, out[i].Loc.Y}, out[i].Src}); got != before[id] {
			t.Fatalf("batch addr %d after kill: %+v, want %+v", id, got, before[id])
		}
	}
	if st := fe.Status(); !st.Ready {
		t.Fatalf("frontend not ready after failover: %+v", st)
	}
}

// addrKey renders an address id the way the /v1 path wildcard expects it.
func addrKey(id model.AddressID) string {
	return strconv.Itoa(int(id))
}

// TestFrontendBatchWithDeadShard: when every peer of one shard is down, a
// frontend batch that needs that shard fails as a whole with the error
// envelope — 502, code internal, the backend's message — instead of a 200
// with an empty body.
func TestFrontendBatchWithDeadShard(t *testing.T) {
	const nShards = 2
	ctx := context.Background()
	ds := tinyDataset(t)
	cfg := quickCfg(len(ds.Trips))
	procs := make([]*shardProc, nShards)
	backends := make([]peer.ShardBackend, nShards)
	for i := range procs {
		procs[i] = newShardProc(t, cfg)
		c, err := peer.NewClient(peer.ClientOptions{Endpoints: []string{procs[i].srv.URL}, Timeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = c
	}
	fe, err := engine.NewShardedBackends(cfg, newRouter(t, nShards), backends)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	if err := fe.IngestDataset(ctx, ds); err != nil {
		t.Fatal(err)
	}
	if err := fe.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}
	if st := fe.Status(); len(st.Shards) != nShards || st.Shards[1].Addresses == 0 {
		t.Fatalf("shard 1 owns no address, so the batch would never reach it: %+v", st)
	}
	feSrv := httptest.NewServer(deploy.NewService(fe, deploy.Options{}))
	defer feSrv.Close()

	keys := make([]int64, 0, len(ds.Addresses))
	for _, a := range ds.Addresses {
		keys = append(keys, int64(a.ID))
	}
	body, err := json.Marshal(api.BatchLocationsRequest{Addrs: keys})
	if err != nil {
		t.Fatal(err)
	}
	procs[1].srv.Close() // shard 1's only peer dies; shard 0 still serves

	resp, err := http.Post(feSrv.URL+"/v1/locations:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("status %d, body is no error envelope: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusBadGateway || env.Error == nil || env.Error.Code != api.CodeInternal ||
		!strings.Contains(env.Error.Message, procs[1].srv.URL) {
		t.Fatalf("status %d, envelope %+v; want 502 %s naming %s", resp.StatusCode, env.Error, api.CodeInternal, procs[1].srv.URL)
	}
}

// TestFrontendLookupWithDeadShard: with every peer of one shard down, a
// frontend point lookup of an address that shard owns answers the same 502
// envelope a batch does — not a 404 that claims the address is unknown —
// and the live shard's addresses keep answering 200.
func TestFrontendLookupWithDeadShard(t *testing.T) {
	const nShards = 2
	ctx := context.Background()
	ds := tinyDataset(t)
	cfg := quickCfg(len(ds.Trips))
	procs := make([]*shardProc, nShards)
	backends := make([]peer.ShardBackend, nShards)
	for i := range procs {
		procs[i] = newShardProc(t, cfg)
		c, err := peer.NewClient(peer.ClientOptions{Endpoints: []string{procs[i].srv.URL}, Timeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = c
	}
	router := newRouter(t, nShards)
	fe, err := engine.NewShardedBackends(cfg, router, backends)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	if err := fe.IngestDataset(ctx, ds); err != nil {
		t.Fatal(err)
	}
	if err := fe.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}
	feSrv := httptest.NewServer(deploy.NewService(fe, deploy.Options{}))
	defer feSrv.Close()
	get := func(a model.AddressInfo) (int, *api.Error) {
		t.Helper()
		resp, err := http.Get(feSrv.URL + "/v1/locations/" + strconv.Itoa(int(a.ID)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env api.ErrorEnvelope
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("status %d, body is no error envelope: %v", resp.StatusCode, err)
			}
		}
		return resp.StatusCode, env.Error
	}
	// One address each shard answers while both are up.
	var owned [nShards]*model.AddressInfo
	for i := range ds.Addresses {
		a := &ds.Addresses[i]
		if sh := router.AddressShard(*a); owned[sh] == nil {
			if code, _ := get(*a); code == http.StatusOK {
				owned[sh] = a
			}
		}
	}
	if owned[0] == nil || owned[1] == nil {
		t.Fatalf("no address answered on each shard: %v", owned)
	}
	procs[1].srv.Close() // shard 1's only peer dies; shard 0 still serves

	if code, e := get(*owned[1]); code != http.StatusBadGateway || e == nil || e.Code != api.CodeInternal {
		t.Fatalf("dead shard's address: status %d, envelope %+v; want 502 %s", code, e, api.CodeInternal)
	}
	if code, e := get(*owned[0]); code != http.StatusOK {
		t.Fatalf("live shard's address: status %d, envelope %+v; want 200", code, e)
	}
}

// TestFrontendBatchSkipsHealthzOnceWarm: a frontend's batch lookup asks its
// peers for health only when no key answered. Warm, ten lookups cost no
// peer /v1/healthz RPC; cold, the batch still answers 503 engine_not_ready.
func TestFrontendBatchSkipsHealthzOnceWarm(t *testing.T) {
	const nShards = 2
	ctx := context.Background()
	ds := tinyDataset(t)
	cfg := quickCfg(len(ds.Trips))
	var healthz, batches atomic.Int64
	peers := make([]string, 2)
	for i := range peers {
		eng := engine.New(cfg)
		svc := deploy.NewService(eng, deploy.Options{})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/healthz":
				healthz.Add(1)
			case "/v1/locations:batch":
				batches.Add(1)
			}
			svc.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			srv.Close()
			eng.Close()
		})
		peers[i] = srv.URL
	}
	backends, _, err := peer.NewFrontendBackends(newRouter(t, nShards), peer.FrontendOptions{Peers: peers, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := engine.NewShardedBackends(cfg, newRouter(t, nShards), backends)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	feSrv := httptest.NewServer(deploy.NewService(fe, deploy.Options{}))
	defer feSrv.Close()

	keys := make([]int64, 0, len(ds.Addresses))
	for _, a := range ds.Addresses {
		keys = append(keys, int64(a.ID))
	}
	body, err := json.Marshal(api.BatchLocationsRequest{Addrs: keys})
	if err != nil {
		t.Fatal(err)
	}
	lookup := func() (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(feSrv.URL+"/v1/locations:batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	resp, data := lookup()
	var env api.ErrorEnvelope
	if resp.StatusCode != http.StatusServiceUnavailable || json.Unmarshal(data, &env) != nil ||
		env.Error == nil || env.Error.Code != api.CodeEngineNotReady {
		t.Fatalf("cold frontend batch: status %d, body %s; want 503 %s", resp.StatusCode, data, api.CodeEngineNotReady)
	}

	if err := fe.IngestDataset(ctx, ds); err != nil {
		t.Fatal(err)
	}
	if err := fe.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}
	healthz.Store(0)
	batches.Store(0)
	for i := 0; i < 10; i++ {
		if resp, data := lookup(); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm frontend batch %d: status %d, body %s", i, resp.StatusCode, data)
		}
	}
	if batches.Load() < 10 || healthz.Load() != 0 {
		t.Fatalf("10 warm batch lookups cost %d peer batch RPCs and %d peer healthz RPCs, want >= 10 and 0",
			batches.Load(), healthz.Load())
	}
}

// TestFrontendBatchFansOutToPeers: a frontend's batch lookup over two remote
// shards asks both peers at once, not one after the other — with each peer
// taking 100 ms to answer its :batch RPC, one Tiny-sized batch has both RPCs
// in flight together.
func TestFrontendBatchFansOutToPeers(t *testing.T) {
	const nShards = 2
	ctx := context.Background()
	ds := tinyDataset(t)
	cfg := quickCfg(len(ds.Trips))
	var inFlight, maxInFlight, batches atomic.Int64
	peers := make([]string, nShards)
	for i := range peers {
		eng := engine.New(cfg)
		svc := deploy.NewService(eng, deploy.Options{})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/locations:batch" {
				batches.Add(1)
				n := inFlight.Add(1)
				for m := maxInFlight.Load(); n > m && !maxInFlight.CompareAndSwap(m, n); m = maxInFlight.Load() {
				}
				time.Sleep(100 * time.Millisecond)
				defer inFlight.Add(-1)
			}
			svc.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			srv.Close()
			eng.Close()
		})
		peers[i] = srv.URL
	}
	backends, _, err := peer.NewFrontendBackends(newRouter(t, nShards), peer.FrontendOptions{Peers: peers, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := engine.NewShardedBackends(cfg, newRouter(t, nShards), backends)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	if err := fe.IngestDataset(ctx, ds); err != nil {
		t.Fatal(err)
	}
	if err := fe.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}

	keys := make([]model.AddressID, 0, len(ds.Addresses))
	for _, a := range ds.Addresses {
		keys = append(keys, a.ID)
	}
	batches.Store(0)
	maxInFlight.Store(0)
	if _, err := fe.QueryBatch(ctx, keys, nil); err != nil {
		t.Fatal(err)
	}
	if batches.Load() != nShards || maxInFlight.Load() != nShards {
		t.Fatalf("a %d-key batch over %d peers made %d peer batch RPCs, at most %d in flight; want %d and %d",
			len(keys), nShards, batches.Load(), maxInFlight.Load(), nShards, nShards)
	}
}
