// Package work holds the four benchmark workloads and the flow they share:
// launch a real server child, drive it from this one generator process,
// check every answer, and turn what was observed into named metrics.
package work

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dlinfma/bench/internal/proc"
	"dlinfma/bench/internal/stats"
	"dlinfma/bench/internal/tracesrv"
	"dlinfma/internal/deploy/api"
)

// Names lists the workloads in the order a full set runs them.
var Names = []string{"point_lookup", "batch_lookup", "stream_ingest", "reinfer_refresh"}

// Config is what one run of one workload is given.
type Config struct {
	ServerBin string // cmd/dlinfma, built from the checkout
	SelfBin   string // this harness, whose "serve" subcommand is the traced child
	TmpDir    string // scratch of this run, inside the checkout
	OutDir    string // where trace-<workload>.jsonl goes
	Seed      int64
	Seconds   int
	Conns     int // connections of a closed loop
	Log       io.Writer
}

func (c Config) logf(format string, args ...any) {
	fmt.Fprintf(c.Log, format+"\n", args...)
}

// Result is the outcome of one run.
type Result struct {
	Attempted int
	Failed    int
	FirstErr  string
	// Metrics are the end-to-end metrics of an untraced run, or the
	// client.* and trace.* layer metrics of a traced one.
	Metrics []stats.Metric
	// Extra are workload-specific observations printed for the reader; the
	// metric set of BENCHMARK.json is the same for every workload.
	Extra []stats.Metric
	// Invalid says why the generator, not the server, may have set the
	// numbers; empty for a valid run.
	Invalid string
}

// setupLaunches is how often an untraced run sets the server up; setup_s is
// the median.
const setupLaunches = 3

// workload is what the shared flow needs from each of the four.
type workload interface {
	// args are the server's flags (without -listen).
	args() []string
	// ready accepts the /v1/healthz answer of a server that finished set-up.
	ready(st api.EngineStatus) bool
	// drive runs the measured phase against child. scale shortens it for
	// the two half-length phases of a traced run. spans is nil unless the
	// child is the traced one.
	drive(child *proc.Child, scale float64, spans *spanSink) (*driven, error)
}

// recoverer is a workload whose set-up time is its crash recovery: after
// the measured phase the child is SIGKILLed and relaunched on the state it
// left behind.
type recoverer interface {
	recovered(st api.EngineStatus) bool
}

// driven is what a measured phase observed.
type driven struct {
	attempted, failed int
	firstErr          string
	lat               []int64 // sorted latencies, ns
	lateness          []int64 // sorted generator lateness, ns; nil in a closed loop
	throughput        float64 // ops/s
	cpuPerOp          time.Duration
	clientCPUShare    float64 // generator CPU / (wall x processors)
	extra             []stats.Metric
}

func (d *driven) fail(err error) {
	d.failed++
	if d.firstErr == "" {
		d.firstErr = err.Error()
	}
}

// Run runs one workload once: untraced for the end-to-end metrics, traced
// for the layer metrics.
func Run(cfg Config, name string, traced bool) (Result, error) {
	if err := os.MkdirAll(cfg.TmpDir, 0o755); err != nil {
		return Result{}, err
	}
	var (
		w   workload
		err error
	)
	switch name {
	case "point_lookup", "batch_lookup":
		w, err = newLookup(cfg, name == "batch_lookup")
	case "stream_ingest":
		w, err = newStream(cfg)
	case "reinfer_refresh":
		w, err = newRefresh(cfg)
	default:
		err = fmt.Errorf("work: unknown workload %q", name)
	}
	if err != nil {
		return Result{}, err
	}
	if traced {
		return runTraced(cfg, name, w)
	}
	return runPlain(cfg, w)
}

// launch starts the server and waits until it is ready.
func launch(cfg Config, bin string, args []string, ready func(api.EngineStatus) bool) (*proc.Child, time.Duration, error) {
	child, err := proc.Start(bin, args, filepath.Join(cfg.TmpDir, "server.log"))
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	took, err := child.WaitReady(ctx, ready)
	if err != nil {
		child.Kill()
		return nil, 0, err
	}
	return child, took, nil
}

func serveArgs(w workload) []string { return append([]string{"serve"}, w.args()...) }

func runPlain(cfg Config, w workload) (Result, error) {
	rec, recovers := w.(recoverer)
	var setups []int64 // ns
	var child *proc.Child
	launches := setupLaunches
	if recovers {
		launches = 1 // the first launch is of an empty server; set-up is measured after the crash
	}
	for i := 0; i < launches; i++ {
		if child != nil {
			child.Kill()
		}
		c, took, err := launch(cfg, cfg.ServerBin, serveArgs(w), w.ready)
		if err != nil {
			return Result{}, err
		}
		child = c
		setups = append(setups, int64(took))
	}
	defer child.Kill()
	d, err := w.drive(child, 1, nil)
	if err != nil {
		return Result{}, err
	}
	rss, err := child.PeakRSSMB()
	if err != nil {
		return Result{}, err
	}
	child.Kill() // SIGKILL: nothing the server does on a clean exit may be needed
	if recovers {
		setups = setups[:0]
		for i := 0; i < setupLaunches; i++ {
			c, took, err := launch(cfg, cfg.ServerBin, serveArgs(w), rec.recovered)
			if err != nil {
				d.fail(fmt.Errorf("recovery: %w", err))
				break
			}
			c.Kill()
			setups = append(setups, int64(took))
		}
	}
	res := result(d)
	res.Metrics = []stats.Metric{
		stats.Dur("setup_s", stats.Percentile(stats.SortNS(setups), 50)),
		stats.Num("throughput_ops_s", d.throughput),
		stats.Dur("latency_p50_ms", stats.Percentile(d.lat, 50)),
		stats.Dur("server_cpu_us_per_op", d.cpuPerOp),
		stats.Num("server_rss_mb", rss),
	}
	res.Extra = append(clientMetrics(d), d.extra...)
	return res, nil
}

func result(d *driven) Result {
	res := Result{Attempted: d.attempted, Failed: d.failed, FirstErr: d.firstErr}
	switch {
	case d.clientCPUShare > 1/float64(procs()):
		res.Invalid = fmt.Sprintf("generator used %.2f of the machine, more than one processor of %d", d.clientCPUShare, procs())
	case len(d.lateness) > 0 && stats.Percentile(d.lateness, 99) > 5*time.Millisecond:
		res.Invalid = fmt.Sprintf("generator ran %v late at p99", stats.Percentile(d.lateness, 99))
	}
	return res
}

// clientMetrics are the harness-side layer metrics: the latency tail (not
// gated, see the README), how late an open loop ran, and how much of the
// machine the generator took.
func clientMetrics(d *driven) []stats.Metric {
	pct, tail := stats.Tail(d.lat)
	return []stats.Metric{
		stats.Dur("client.latency_p99_ms", stats.Percentile(d.lat, 99)),
		stats.Dur("client.latency_tail_ms", tail),
		stats.Num("client.latency_tail_pct", pct),
		stats.Num("client.latency_samples", float64(len(d.lat))),
		stats.Dur("client.lateness_p99_ms", stats.Percentile(d.lateness, 99)),
		stats.Num("client.cpu_share", d.clientCPUShare),
	}
}

// runTraced runs the workload twice at half length: against the real server
// for the reference throughput, then against the traced child. End-to-end
// metrics are never taken from here.
func runTraced(cfg Config, name string, w workload) (Result, error) {
	child, _, err := launch(cfg, cfg.ServerBin, serveArgs(w), w.ready)
	if err != nil {
		return Result{}, err
	}
	defer child.Kill()
	plain, err := w.drive(child, 0.5, nil)
	if err != nil {
		return Result{}, err
	}
	child.Kill()
	if r, ok := w.(interface{ reset() }); ok {
		r.reset()
	}

	serverSpans := filepath.Join(cfg.TmpDir, "server-spans.jsonl")
	tchild, _, err := launch(cfg, cfg.SelfBin, append(serveArgs(w), "-trace-out", serverSpans), w.ready)
	if err != nil {
		return Result{}, err
	}
	defer tchild.Kill()
	sink := &spanSink{}
	tr, err := w.drive(tchild, 0.5, sink)
	if err != nil {
		return Result{}, err
	}
	tchild.Term(20 * time.Second) // SIGTERM: the child writes its spans on the way out
	spans, err := tracesrv.ReadSpans(serverSpans)
	if err != nil {
		return Result{}, fmt.Errorf("read server spans: %w", err)
	}
	spans = append(spans, sink.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return Result{}, err
	}
	out := filepath.Join(cfg.OutDir, "trace-"+name+".jsonl")
	if err := tracesrv.WriteSpans(out, spans); err != nil {
		return Result{}, err
	}
	self := tracesrv.SelfTimes(spans)
	cfg.logf("%d spans of %d sampled requests -> %s (median client span %.1f us)",
		len(spans), self.Requests, out, float64(self.Client)/1e3)

	res := result(plain)
	res.Attempted += tr.attempted
	res.Failed += tr.failed
	if res.FirstErr == "" {
		res.FirstErr = tr.firstErr
	}
	if self.Requests == 0 {
		res.Failed++
		res.FirstErr = "traced run recorded no complete request"
	}
	res.Metrics = append(clientMetrics(plain),
		stats.Dur("trace.http_self_us", self.HTTP),
		stats.Dur("trace.deploy_self_us", self.Deploy),
		stats.Dur("trace.engine_self_us", self.Engine),
		stats.Num("trace.overhead_share", 1-tr.throughput/plain.throughput),
	)
	res.Extra = []stats.Metric{
		stats.Dur("trace.client_span_us", self.Client),
		stats.Num("untraced.throughput_ops_s", plain.throughput),
		stats.Num("traced.throughput_ops_s", tr.throughput),
	}
	return res, nil
}
