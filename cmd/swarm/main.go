// Command swarm is the open-loop load generator for a live dlinfma server
// or cluster frontend. It offers a mixed workload — single and batched
// address lookups, NDJSON trajectory-streaming bursts, optional re-inference
// storms — on a timer-driven arrival schedule that never waits for
// responses, so slow servers get measured instead of accidentally throttling
// the load (coordinated omission).
//
//	swarm -target http://host:port -rate 200 -duration 30s
//
// holds a fixed arrival rate for the duration and prints the stage summary,
// per-endpoint percentiles and the interval timeseries as JSON on stdout
// (every latency in fractional milliseconds); the optional -tui dashboard
// goes to stderr. End-to-end performance numbers come from bench/run.sh;
// swarm is the traffic source for smokes and fault drills.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dlinfma/internal/loadgen"
)

func main() {
	var (
		target   = flag.String("target", "", "base URL of the server under test (required)")
		rate     = flag.Float64("rate", 0, "arrival rate in qps (required)")
		duration = flag.Duration("duration", 10*time.Second, "run duration")
		config   = flag.String("config", "", "configuration label copied into the report, e.g. shards=2")
		mix      = flag.String("mix", "lookup=80,batch=10,stream=10", "endpoint weights, name=weight comma-separated (lookup, batch, stream, reinfer), or a preset: default, read-heavy, ingest-heavy")
		seed     = flag.Int64("seed", 1, "seed for address sampling, bodies, and Poisson arrivals")
		poisson  = flag.Bool("poisson", false, "Poisson arrivals instead of uniform pacing")
		inFlight = flag.Int("max-in-flight", 0, "bound on concurrent requests (0: default)")
		batchKey = flag.Int("batch-keys", 64, "addresses per batch request")
		wait     = flag.Duration("wait", 30*time.Second, "how long to wait for the target's /v1/healthz to answer ready")
		interval = flag.Duration("interval", time.Second, "timeseries sampling interval")
		tui      = flag.Bool("tui", false, "live terminal dashboard on stderr")
		out      = flag.String("out", "", "also write the JSON verdict to this file")
	)
	flag.Parse()
	if *target == "" || *rate <= 0 {
		fatal("swarm: -target and a positive -rate are required\nusage: swarm -target http://host:port -rate QPS [-duration 10s] [flags]")
	}
	m, err := parseMix(*mix)
	if err != nil {
		fatal("swarm: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w, err := waitReady(ctx, *target, m, *seed, *batchKey, *wait)
	if err != nil {
		fatal("swarm: %v", err)
	}

	ts := loadgen.NewTimeseries()
	var onSample func(loadgen.SeriesPoint)
	if *tui {
		dash := loadgen.NewDashboard(os.Stderr, w.Stats(), ts)
		onSample = dash.Render
	}
	sampleCtx, stopSampler := context.WithCancel(ctx)
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		loadgen.Sample(sampleCtx, w.Stats(), ts, *interval, time.Now(), *rate, onSample)
	}()

	res := loadgen.RunStage(ctx, w, *rate, *duration,
		loadgen.StageOptions{Poisson: *poisson, Seed: *seed, MaxInFlight: *inFlight})
	stopSampler()
	<-samplerDone

	data, err := json.MarshalIndent(fixedReport{
		Config: *config, Stage: res,
		Endpoints: endpointSummaries(w.Stats()),
		Series:    ts.Points(),
	}, "", "  ")
	if err != nil {
		fatal("swarm: %v", err)
	}
	data = append(data, '\n')
	if _, err := os.Stdout.Write(data); err != nil {
		fatal("swarm: %v", err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal("swarm: %v", err)
		}
	}
}

// fixedReport is the stdout JSON of a fixed-rate run.
type fixedReport struct {
	Config    string                `json:"config,omitempty"`
	Stage     loadgen.StageResult   `json:"stage"`
	Endpoints []endpointSummary     `json:"endpoints"`
	Series    []loadgen.SeriesPoint `json:"series,omitempty"`
}

type endpointSummary struct {
	Endpoint string `json:"endpoint"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
	// Backpressure counts 429 answers — the server shedding load by design,
	// reported separately so an ingest-heavy run's flow control is visible
	// without polluting the error rate.
	Backpressure int64   `json:"backpressure,omitempty"`
	P50MS        float64 `json:"p50_ms"`
	P99MS        float64 `json:"p99_ms"`
	LastErr      string  `json:"last_error,omitempty"`
}

func endpointSummaries(stats *loadgen.Stats) []endpointSummary {
	snap := stats.Snapshot()
	var out []endpointSummary
	for _, ep := range loadgen.Endpoints() {
		e := snap.Endpoints[ep]
		if e.OK+e.Errors+e.Backpressure == 0 {
			continue
		}
		out = append(out, endpointSummary{
			Endpoint:     ep.String(),
			Requests:     e.OK + e.Errors + e.Backpressure,
			Errors:       e.Errors,
			Backpressure: e.Backpressure,
			P50MS:        float64(e.Hist.Quantile(0.50)) / 1e6,
			P99MS:        float64(e.Hist.Quantile(0.99)) / 1e6,
			LastErr:      e.LastErr,
		})
	}
	return out
}

// waitReady polls the target's typed health status until it reports ready
// (or the deadline passes), then builds the workload. Building after
// readiness matters: the workload sizes its address universe from the
// deployed engine's status.
func waitReady(ctx context.Context, target string, m loadgen.Mix, seed int64, batchKeys int, wait time.Duration) (*loadgen.Workload, error) {
	deadline := time.Now().Add(wait)
	for {
		w, err := loadgen.NewWorkload(loadgen.WorkloadConfig{
			Target:    target,
			Mix:       m,
			Seed:      seed,
			BatchKeys: batchKeys,
		})
		if err == nil {
			st, herr := w.Health(ctx)
			if herr == nil && (st.Ready || wait == 0) {
				return w, nil
			}
			if wait == 0 {
				return w, nil
			}
			err = fmt.Errorf("target not ready (ready=%v)", st.Ready)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("wait for %s: %w", target, err)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(250 * time.Millisecond):
		}
	}
}

// parseMix reads "lookup=80,batch=10,stream=10,reinfer=0" or a named preset
// (default, read-heavy, ingest-heavy).
func parseMix(s string) (loadgen.Mix, error) {
	if m, ok := loadgen.MixPreset(strings.TrimSpace(s)); ok {
		return m, nil
	}
	var m loadgen.Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("mix entry %q is not name=weight", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return m, fmt.Errorf("mix weight %q must be a non-negative integer", val)
		}
		switch name {
		case "lookup":
			m.Lookup = n
		case "batch":
			m.Batch = n
		case "stream":
			m.Stream = n
		case "reinfer":
			m.Reinfer = n
		default:
			return m, fmt.Errorf("unknown mix endpoint %q (lookup, batch, stream, reinfer)", name)
		}
	}
	if m.Total() == 0 {
		return m, fmt.Errorf("mix %q has no positive weights", s)
	}
	return m, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
