package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"dlinfma/internal/deploy/api"
	"dlinfma/internal/synth"
)

// Mix weighs the request kinds of a workload. Weights are relative (they
// need not sum to 100); a zero weight disables the endpoint entirely.
type Mix struct {
	// Lookup weighs GET /v1/locations/{key} single-address queries.
	Lookup int
	// Batch weighs POST /v1/locations:batch bulk lookups.
	Batch int
	// Stream weighs POST /v1/trajectories:stream NDJSON trajectory bursts.
	Stream int
	// Reinfer weighs POST /v1/reinfer retrain kicks (a 409 while one is
	// already running counts as success — that is the documented contract).
	Reinfer int
}

// DefaultMix is the read-heavy serving shape:
// overwhelmingly lookups, a slice of batches, a trickle of trajectory
// ingest, no reinfer storms (a background retrain would measure the
// retrainer, not the serving path).
func DefaultMix() Mix { return Mix{Lookup: 80, Batch: 10, Stream: 10} }

// IngestHeavyMix is the write-dominant shape for exercising the streaming
// path: mostly trajectory bursts with a thin read mix to keep the serving
// path honest. Offered hard enough it drives the engine into
// -max-pending-trips backpressure, which the collector records as 429
// rejections rather than errors.
func IngestHeavyMix() Mix { return Mix{Lookup: 10, Batch: 5, Stream: 85} }

// MixPreset resolves a named preset ("default", "ingest-heavy"). The second
// return is false for unknown names.
func MixPreset(name string) (Mix, bool) {
	switch name {
	case "default", "read-heavy":
		return DefaultMix(), true
	case "ingest-heavy":
		return IngestHeavyMix(), true
	}
	return Mix{}, false
}

// Total returns the weight sum.
func (m Mix) Total() int { return m.Lookup + m.Batch + m.Stream + m.Reinfer }

// WorkloadConfig assembles a Workload.
type WorkloadConfig struct {
	// Target is the base URL of the server under test, e.g.
	// "http://127.0.0.1:8080" — no trailing slash.
	Target string
	// Client is the HTTP client to use; nil builds one with a pooled
	// keep-alive transport sized for the swarm's concurrency.
	Client *http.Client
	Mix    Mix
	// Seed makes address sampling and pre-built bodies reproducible.
	Seed int64
	// BatchKeys is the number of addresses per batch request (default 64,
	// capped at api.MaxBatchKeys).
	BatchKeys int
	// StreamPoints caps the GPS fixes per trajectory burst (default 32).
	StreamPoints int
	// FallbackAddrs sizes the address universe when the server's /v1/healthz
	// reports none registered (cold engine). Default 1024.
	FallbackAddrs int
	// Timeout bounds one request (default 10s). Generous on purpose: an
	// open-loop generator must observe slow responses, not amputate them.
	Timeout time.Duration
}

// Workload synthesizes and executes requests against one target. It learns
// the address universe from the server's typed /v1/healthz status, samples
// addresses with a Zipf-shaped heavy tail (matching the order-frequency
// skew the synthetic city generates), and pre-serializes batch and
// trajectory-burst bodies so the per-arrival work is a slice pick, not a
// JSON encode.
type Workload struct {
	target string
	client *http.Client
	mix    Mix
	stats  *Stats

	addrs   int64 // universe size: keys are [0, addrs)
	zipf    *rand.Zipf
	rng     *rand.Rand
	batches [][]byte
	bursts  [][]byte
	next    atomic.Int64 // cycles pre-built bodies across ops
}

// streamCourierBase keeps swarm courier ids clear of any dataset's real
// couriers, so burst trips never interleave with seeded trajectories.
const streamCourierBase = 9_000_000

// NewWorkload probes the target's typed health status and pre-builds request
// bodies. The target must be reachable; it need not be ready (a cold engine
// still serves the fallback universe).
func NewWorkload(cfg WorkloadConfig) (*Workload, error) {
	if cfg.Mix.Total() <= 0 {
		return nil, fmt.Errorf("loadgen: mix has no positive weights")
	}
	w := &Workload{
		target: cfg.Target,
		client: cfg.Client,
		mix:    cfg.Mix,
		stats:  NewStats(),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	if w.client == nil {
		tr := &http.Transport{
			MaxIdleConns:        4096,
			MaxIdleConnsPerHost: 4096,
			IdleConnTimeout:     90 * time.Second,
		}
		timeout := cfg.Timeout
		if timeout <= 0 {
			timeout = 10 * time.Second
		}
		w.client = &http.Client{Transport: tr, Timeout: timeout}
	}

	st, err := w.Health(context.Background())
	if err != nil {
		return nil, fmt.Errorf("loadgen: probe %s/v1/healthz: %w", cfg.Target, err)
	}
	w.addrs = int64(st.Addresses)
	if w.addrs <= 0 {
		w.addrs = int64(cfg.FallbackAddrs)
		if w.addrs <= 0 {
			w.addrs = 1024
		}
	}
	// s=1.1, v=1 gives the gentle power law of order frequency per address;
	// imax is the largest sampled value.
	w.zipf = rand.NewZipf(w.rng, 1.1, 1, uint64(w.addrs-1))

	batchKeys := cfg.BatchKeys
	if batchKeys <= 0 {
		batchKeys = 64
	}
	if batchKeys > api.MaxBatchKeys {
		batchKeys = api.MaxBatchKeys
	}
	if w.mix.Batch > 0 {
		w.batches = make([][]byte, 64)
		for i := range w.batches {
			req := api.BatchLocationsRequest{Addrs: make([]int64, batchKeys)}
			for j := range req.Addrs {
				req.Addrs[j] = w.sampleAddr()
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			w.batches[i] = body
		}
	}
	if w.mix.Stream > 0 {
		if err := w.buildBursts(cfg); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// buildBursts pre-serializes NDJSON trajectory bursts from synthetically
// generated courier trips: real stay-point shapes, not random walks. Each
// burst carries a distinct courier id so concurrent bursts never interleave
// into one stream; ids cycle, which is safe because every burst ends with an
// explicit end marker that closes the trip.
func (w *Workload) buildBursts(cfg WorkloadConfig) error {
	maxPts := cfg.StreamPoints
	if maxPts <= 0 {
		maxPts = 32
	}
	p := synth.Tiny()
	p.Seed = cfg.Seed + 1
	ds, _, err := synth.Generate(p)
	if err != nil {
		return fmt.Errorf("loadgen: generate burst trips: %w", err)
	}
	n := len(ds.Trips)
	if n > 128 {
		n = 128
	}
	w.bursts = make([][]byte, 0, n)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		buf.Reset()
		courier := int64(streamCourierBase + i)
		traj := ds.Trips[i].Traj
		if len(traj) > maxPts {
			traj = traj[:maxPts]
		}
		for _, pt := range traj {
			line, err := json.Marshal(api.StreamPoint{Courier: courier, X: pt.P.X, Y: pt.P.Y, T: pt.T})
			if err != nil {
				return err
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		end, err := json.Marshal(api.StreamPoint{Courier: courier, End: true})
		if err != nil {
			return err
		}
		buf.Write(end)
		buf.WriteByte('\n')
		w.bursts = append(w.bursts, append([]byte(nil), buf.Bytes()...))
	}
	return nil
}

// sampleAddr draws one address key with the heavy-tailed popularity shape.
func (w *Workload) sampleAddr() int64 { return int64(w.zipf.Uint64()) }

// Stats exposes the collector the workload records into.
func (w *Workload) Stats() *Stats { return w.stats }

// Health fetches and decodes the typed GET /v1/healthz payload. A non-2xx
// status still decodes (a cold engine answers 503 with the same body).
func (w *Workload) Health(ctx context.Context) (api.EngineStatus, error) {
	var st api.EngineStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.target+"/v1/healthz", nil)
	if err != nil {
		return st, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode healthz: %w", err)
	}
	return st, nil
}

// Pick chooses the next operation's endpoint from the mix. It must be
// called from the pacing goroutine only (it uses the workload's rng).
func (w *Workload) Pick() Endpoint {
	n := w.rng.Intn(w.mix.Total())
	if n -= w.mix.Lookup; n < 0 {
		return EPLookup
	}
	if n -= w.mix.Batch; n < 0 {
		return EPBatch
	}
	if n -= w.mix.Stream; n < 0 {
		return EPStream
	}
	return EPReinfer
}

// Args pre-computed on the pacing goroutine so Do needs no rng.
type opArgs struct {
	ep   Endpoint
	addr int64
	body []byte
}

// Next returns one ready-to-fire operation: endpoint picked from the mix,
// arguments sampled, body chosen. The returned closure is what RunOpenLoop
// launches; it executes the request and records the outcome.
func (w *Workload) Next() func(context.Context) {
	args := opArgs{ep: w.Pick()}
	switch args.ep {
	case EPLookup:
		args.addr = w.sampleAddr()
	case EPBatch:
		args.body = w.batches[w.next.Add(1)%int64(len(w.batches))]
	case EPStream:
		args.body = w.bursts[w.next.Add(1)%int64(len(w.bursts))]
	}
	return func(ctx context.Context) { w.do(ctx, args) }
}

// do executes one operation and records latency + outcome. Expected
// non-2xx statuses per endpoint: a lookup 404 (key not in the served store)
// and a reinfer 409 (job already running) are correct server behavior under
// this workload, so they count as success; a 429 is the server shedding load
// by design and records as backpressure; everything else — 5xx, transport
// errors, timeouts — is an error.
func (w *Workload) do(ctx context.Context, args opArgs) {
	var (
		req *http.Request
		err error
	)
	switch args.ep {
	case EPLookup:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			w.target+"/v1/locations/"+strconv.FormatInt(args.addr, 10), nil)
	case EPBatch:
		req, err = http.NewRequestWithContext(ctx, http.MethodPost,
			w.target+"/v1/locations:batch", bytes.NewReader(args.body))
	case EPStream:
		req, err = http.NewRequestWithContext(ctx, http.MethodPost,
			w.target+"/v1/trajectories:stream", bytes.NewReader(args.body))
	case EPReinfer:
		req, err = http.NewRequestWithContext(ctx, http.MethodPost,
			w.target+"/v1/reinfer", nil)
	}
	if err != nil {
		w.stats.Record(args.ep, 0, err)
		return
	}
	if args.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		w.stats.Record(args.ep, time.Since(start), err)
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	switch {
	case okStatus(args.ep, resp.StatusCode):
		w.stats.Record(args.ep, d, nil)
	case resp.StatusCode == http.StatusTooManyRequests:
		w.stats.RecordBackpressure(args.ep, d)
	default:
		w.stats.Record(args.ep, d, fmt.Errorf("%s: status %d", args.ep, resp.StatusCode))
	}
}

// okStatus classifies one response status for an endpoint.
func okStatus(ep Endpoint, code int) bool {
	if code >= 200 && code < 300 {
		return true
	}
	switch ep {
	case EPLookup:
		return code == http.StatusNotFound
	case EPReinfer:
		return code == http.StatusConflict
	}
	return false
}
