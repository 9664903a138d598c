// Package tracesrv is the traced run's server child: the same public
// constructors cmd/dlinfma's serve subcommand assembles (engine.New or
// NewSharded, wal.Open, deploy.NewService, deploy.NewServer), with a
// span-recording wrapper around the deploy handler and a span-recording
// decorator around the engine. Spans are recorded from here, around the
// calls into each layer; spans inside the program are a later change.
package tracesrv

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"dlinfma/bench/internal/stats"
	"dlinfma/internal/deploy"
	"dlinfma/internal/engine"
	"dlinfma/internal/eval"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/obs"
	"dlinfma/internal/obs/trace"
	"dlinfma/internal/shard"
	"dlinfma/internal/traj"
	"dlinfma/internal/wal"
)

// Span is one recorded interval. Spans of one request share Req, the
// X-Request-ID the client set. The client span's ID is the request id, the
// deploy span's is "<req>/deploy"; engine spans are leaves and carry none.
type Span struct {
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"`
	Parent string `json:"parent,omitempty"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"` // unix nanoseconds
	End    int64  `json:"end_ns"`
}

// SampleEvery is the share of requests recorded: 1 in 16.
const SampleEvery = 16

// Sampled reports whether a request id is recorded: ids end in the client's
// sequence number, and every 16th is taken, so client and server agree
// without talking.
func Sampled(reqID string) bool {
	n, digits := 0, 0
	for i := len(reqID) - 1; i >= 0 && digits < 9; i-- {
		c := reqID[i]
		if c < '0' || c > '9' {
			break
		}
		digits++
	}
	if digits == 0 {
		return false
	}
	for _, c := range reqID[len(reqID)-digits:] {
		n = n*10 + int(c-'0')
	}
	return n%SampleEvery == 0
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []Span
}

// add records one span.
func (r *recorder) add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// WriteSpans writes spans as JSON lines.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadSpans reads a file written by WriteSpans.
func ReadSpans(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s Span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// handler records one "deploy" span per sampled request around the whole
// deploy service (middleware, decode, engine call, encode).
func handler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if !Sampled(id) {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		rec.add(Span{Name: "deploy", ID: id + "/deploy", Parent: id, Req: id,
			Start: start.UnixNano(), End: time.Now().UnixNano()})
	})
}

// tracedEngine decorates the engine's request-path methods. It implements
// deploy.ContextQuerier so the service hands single-key reads the request
// context, from which deploy.RequestID links the engine span to the request.
type tracedEngine struct {
	engine.Runtime
	rec *recorder
}

// span starts an engine span for a sampled request; the returned func ends
// it. Unsampled requests pay one context lookup and no clock reads.
func (t *tracedEngine) span(ctx context.Context) func() {
	id := deploy.RequestID(ctx)
	if !Sampled(id) {
		return func() {}
	}
	start := time.Now()
	return func() {
		t.rec.add(Span{Name: "engine", Parent: id + "/deploy", Req: id,
			Start: start.UnixNano(), End: time.Now().UnixNano()})
	}
}

func (t *tracedEngine) QueryCtx(ctx context.Context, addr model.AddressID) (geo.Point, deploy.Source) {
	defer t.span(ctx)()
	if cq, ok := t.Runtime.(deploy.ContextQuerier); ok {
		return cq.QueryCtx(ctx, addr)
	}
	return t.Runtime.Query(addr)
}

func (t *tracedEngine) QueryBatch(ctx context.Context, addrs []model.AddressID, out []deploy.BatchAnswer) ([]deploy.BatchAnswer, error) {
	defer t.span(ctx)()
	return t.Runtime.QueryBatch(ctx, addrs, out)
}

func (t *tracedEngine) IngestPoint(ctx context.Context, courier model.CourierID, pt traj.GPSPoint) error {
	defer t.span(ctx)()
	return t.Runtime.IngestPoint(ctx, courier, pt)
}

func (t *tracedEngine) CloseStream(ctx context.Context, courier model.CourierID) error {
	defer t.span(ctx)()
	return t.Runtime.CloseStream(ctx, courier)
}

var (
	_ deploy.Engine         = (*tracedEngine)(nil)
	_ deploy.BatchQuerier   = (*tracedEngine)(nil)
	_ deploy.StreamIngestor = (*tracedEngine)(nil)
	_ deploy.ContextQuerier = (*tracedEngine)(nil)
)

// Serve is the "serve" subcommand of the harness binary. It follows
// cmd/dlinfma's cmdServe for the flags the workloads use — restore the
// snapshot, replay and attach the WAL, ingest the dataset without a boot
// retrain when a snapshot was restored — then serves until ctx ends and
// writes the recorded spans to -trace-out.
func Serve(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	data := fs.String("data", "", "dataset path")
	listen := fs.String("listen", "", "HTTP listen address")
	snap := fs.String("snapshot", "", "snapshot path, restored on start")
	walDir := fs.String("wal-dir", "", "write-ahead-log directory")
	walFsync := fs.String("wal-fsync", "interval", "WAL fsync policy")
	shards := fs.Int("shards", 1, "geographic shards")
	out := fs.String("trace-out", "", "file the recorded spans are written to on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	log := obs.NewLogger(os.Stderr, obs.LevelInfo, obs.FormatLogfmt)
	tracer := trace.NewTracer(trace.Options{SampleProb: 0.1, SlowThreshold: time.Second, Store: trace.NewStore(256)})
	cfg := engine.DefaultConfig()
	cfg.Matcher = eval.ExperimentLocMatcherConfig()
	cfg.Logger = log.With("component", "engine")
	cfg.Tracer = tracer
	var e engine.Runtime
	if *shards <= 1 {
		e = engine.New(cfg)
	} else {
		r, err := shard.NewRouter(*shards, 0)
		if err != nil {
			return err
		}
		e = engine.NewSharded(cfg, r)
	}
	defer e.Close()

	restored := false
	if *snap != "" {
		if err := e.LoadSnapshotFile(*snap); err != nil {
			return fmt.Errorf("restore snapshot %s: %w", *snap, err)
		}
		restored = true
	}
	replayed := 0
	if *walDir != "" {
		policy, err := wal.ParsePolicy(*walFsync)
		if err != nil {
			return err
		}
		w, err := wal.Open(*walDir, wal.Options{Policy: policy})
		if err != nil {
			return fmt.Errorf("open wal %s: %w", *walDir, err)
		}
		defer w.Close()
		if replayed, err = e.ReplayWAL(ctx, w); err != nil {
			return fmt.Errorf("replay wal %s: %w", *walDir, err)
		}
		e.AttachWAL(w)
	}
	if *data != "" && replayed == 0 {
		ds, err := model.LoadFile(*data)
		if err != nil {
			return err
		}
		if err := e.IngestDataset(ctx, ds); err != nil {
			return err
		}
		if !restored {
			if err := e.Reinfer(ctx); err != nil {
				return err
			}
		}
	}

	rec := &recorder{}
	svc := deploy.NewService(&tracedEngine{Runtime: e, rec: rec}, deploy.Options{
		Logger: log.With("component", "http"), Tracer: tracer,
	})
	err := deploy.Serve(ctx, deploy.NewServer(*listen, handler(rec, svc)))
	if *out != "" {
		if werr := WriteSpans(*out, rec.spans); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// Self is the median, over the sampled requests, of each layer's self time:
// a span's duration minus the part its child spans cover.
type Self struct {
	Requests int
	Client   time.Duration // the whole client span: send -> last body byte
	HTTP     time.Duration // client span minus the deploy span: both net/http ends and the loopback
	Deploy   time.Duration // deploy span minus the engine spans: middleware, decode, encode
	Engine   time.Duration // the engine spans (leaves)
}

// SelfTimes joins client and server spans on the request id. Requests
// missing their client or deploy span (a request cut off by the end of the
// run) are left out.
func SelfTimes(spans []Span) Self {
	type req struct {
		client, deploy, engine time.Duration
	}
	reqs := map[string]*req{}
	for _, s := range spans {
		r := reqs[s.Req]
		if r == nil {
			r = &req{}
			reqs[s.Req] = r
		}
		d := time.Duration(s.End - s.Start)
		switch s.Name {
		case "client":
			r.client = d
		case "deploy":
			r.deploy = d
		case "engine":
			r.engine += d
		}
	}
	var client, httpSelf, deploySelf, engineSelf []int64
	for _, r := range reqs {
		if r.client == 0 || r.deploy == 0 {
			continue
		}
		client = append(client, int64(r.client))
		httpSelf = append(httpSelf, int64(r.client-r.deploy))
		deploySelf = append(deploySelf, int64(r.deploy-r.engine))
		engineSelf = append(engineSelf, int64(r.engine))
	}
	med := func(v []int64) time.Duration { return stats.Percentile(stats.SortNS(v), 50) }
	return Self{Requests: len(client), Client: med(client), HTTP: med(httpSelf), Deploy: med(deploySelf), Engine: med(engineSelf)}
}
