// Command dlbench is the repository's benchmark: four workloads driven
// against a real `dlinfma serve` child process, end-to-end metrics from the
// untraced run, layer metrics from an in-process ladder and a traced run.
// bench/run.sh builds the server and this harness and then runs it; see
// bench/README.md for the metric catalogue.
//
//	dlbench -workload point_lookup -seed 1 -seconds 10 -trace 0   one run, one JSON line last
//	dlbench -trace 1                                              the traced run of all four
//	dlbench -aa 10                                                ten alternating sets, spreads against bounds
//	dlbench serve ...                                             the traced run's server child
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"

	"dlinfma/bench/internal/ladder"
	"dlinfma/bench/internal/proc"
	"dlinfma/bench/internal/stats"
	"dlinfma/bench/internal/tracesrv"
	"dlinfma/bench/internal/work"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := tracesrv.Serve(ctx, os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	// A signal must not leave a server child or the scratch directory
	// behind: the workloads run on a goroutine and main owns the exit.
	done := make(chan error, 1)
	go func() { done <- run(o) }()
	select {
	case err = <-done:
	case <-ctx.Done():
		err = errors.New("interrupted")
	}
	proc.KillAll()
	os.RemoveAll(o.cfg.TmpDir)
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlbench:", err)
	os.Exit(1)
}

// connsPerCPU sizes the closed loops. One connection per processor leaves
// the server idle between a reply and the next request; on the 2-vCPU box
// that idling and waking was 40 % of the server's CPU per lookup and the
// noisiest part of it (run-to-run spread of throughput 26 % at 2 connections,
// 3 % at 8 in a quiet quarter-hour). Four per processor keep it busy.
const connsPerCPU = 4

// spec is BENCHMARK.json, the contract this harness is checked against.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// conform checks that a run emitted exactly the metrics BENCHMARK.json
// declares, each in the declared unit.
func conform(declared []metricSpec, got []stats.Metric) error {
	byName := map[string]stats.Metric{}
	for _, m := range got {
		byName[m.Name] = m
	}
	for _, d := range declared {
		m, ok := byName[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("metric %s: measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		delete(byName, d.Name)
	}
	for name := range byName {
		return fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
	}
	return nil
}

// options is the parsed command line.
type options struct {
	cfg    work.Config
	spec   *spec
	names  []string
	traced bool
	aa     int
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("dlbench", flag.ContinueOnError)
	root := fs.String("root", "..", "checkout root (where BENCHMARK.json is)")
	serverBin := fs.String("server-bin", "", "cmd/dlinfma built from the checkout")
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 0, "run length (0: BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1: the traced run and the ladder (layer metrics) instead of the end-to-end metrics")
	aa := fs.Int("aa", 0, "run the untraced set this many times, alternating workloads, and check each metric's spread against its bound")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	sp, err := loadSpec(*root)
	if err != nil {
		return nil, err
	}
	if *seconds == 0 {
		*seconds = sp.RunSeconds
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(*serverBin); err != nil {
		return nil, fmt.Errorf("-server-bin: %w (bench/run.sh builds it)", err)
	}
	o := &options{spec: sp, names: work.Names, traced: *trace == 1, aa: *aa}
	if *workload != "all" {
		o.names = []string{*workload}
	}
	o.cfg = work.Config{
		ServerBin: *serverBin, SelfBin: self,
		TmpDir: filepath.Join(*root, ".bench_build", "tmp", fmt.Sprintf("run-%d", os.Getpid())),
		OutDir: filepath.Join(*root, "bench", "out"),
		Seed:   *seed, Seconds: *seconds, Conns: connsPerCPU * runtime.NumCPU(), Log: os.Stdout,
	}
	return o, nil
}

func run(o *options) error {
	fmt.Printf("dlbench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), o.cfg.Seed, o.cfg.Seconds)
	if o.aa > 0 {
		return runAA(o.cfg, o.spec, o.names, o.aa)
	}
	var firstErr error
	for _, name := range o.names {
		if err := runOne(o.cfg, o.spec, name, o.traced); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// commit is the VCS revision the toolchain stamped into the binary, when the
// checkout is a git repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// report is the last line of a run, the shape the acceptance check reads.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]reportValue `json:"metrics"`
}

type reportValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printMetrics(ms []stats.Metric) {
	for _, m := range ms {
		fmt.Printf("  %-40s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
}

// measure runs one workload once and checks the result against the spec.
func measure(cfg work.Config, sp *spec, name string, traced bool) (work.Result, error) {
	cfg.TmpDir = filepath.Join(cfg.TmpDir, name)
	defer os.RemoveAll(cfg.TmpDir)
	res, err := work.Run(cfg, name, traced)
	if err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	declared := sp.EndToEnd
	if traced {
		declared = sp.PerLayer
		rungs, err := ladder.Run(cfg.TmpDir)
		if err != nil {
			return res, fmt.Errorf("ladder: %w", err)
		}
		res.Metrics = append(res.Metrics, rungs...)
	}
	if err := conform(declared, res.Metrics); err != nil {
		return res, err
	}
	return res, nil
}

func runOne(cfg work.Config, sp *spec, name string, traced bool) error {
	fmt.Printf("== %s (trace %v)\n", name, traced)
	res, err := measure(cfg, sp, name, traced)
	if err != nil {
		return err
	}
	printMetrics(res.Metrics)
	if len(res.Extra) > 0 {
		fmt.Println("  -- also observed (not in BENCHMARK.json: specific to this workload or not comparable across runs)")
		printMetrics(res.Extra)
	}
	fmt.Printf("  error_share %.6f (%d failed of %d attempted)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	if res.Invalid != "" {
		fmt.Printf("  INVALID RUN: %s\n", res.Invalid)
	}
	rep := report{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]reportValue{}}
	for _, m := range res.Metrics {
		rep.Metrics[m.Name] = reportValue{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed; first: %s", name, res.Failed, res.Attempted, res.FirstErr)
	}
	return nil
}

// runAA repeats the untraced set on the same binaries, a new seed per set,
// and holds every end-to-end metric's spread (interquartile distance over
// median, the acceptance check's own rule) against its bound. setup_s is
// shown but not held to it, as in the acceptance check.
func runAA(cfg work.Config, sp *spec, names []string, sets int) error {
	values := map[string]map[string][]float64{} // workload -> metric -> one value per set
	invalid := 0
	for set := 0; set < sets; set++ {
		c := cfg
		c.Seed = cfg.Seed + int64(set)
		for _, name := range names {
			fmt.Printf("== set %d/%d %s seed %d\n", set+1, sets, name, c.Seed)
			res, err := measure(c, sp, name, false)
			if err != nil {
				return err
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s: %d of %d operations failed; first: %s", name, res.Failed, res.Attempted, res.FirstErr)
			}
			if res.Invalid != "" {
				fmt.Printf("  INVALID RUN: %s\n", res.Invalid)
				invalid++
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for _, m := range res.Metrics {
				values[name][m.Name] = append(values[name][m.Name], m.Value)
			}
		}
	}
	if sets < 2 {
		return errors.New("-aa needs at least two sets to have a spread")
	}
	bad := 0
	fmt.Printf("%-16s %-22s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, name := range names {
		for _, d := range sp.EndToEnd {
			v := values[name][d.Name]
			q1, med, q3 := stats.Quartiles(v)
			spread, verdict := stats.Spread(v), "ok"
			if spread > d.Bound && d.Name != "setup_s" {
				verdict = "OVER"
				bad++
			}
			sorted := append([]float64(nil), v...)
			sort.Float64s(sorted)
			fmt.Printf("%-16s %-22s %12.5g %12.5g %12.5g %8.4f %6.2f %s  %v\n",
				name, d.Name, q1, med, q3, spread, d.Bound, verdict, sorted)
		}
	}
	switch {
	case bad > 0:
		return fmt.Errorf("%d metric spreads exceed their bound", bad)
	case invalid > 0:
		return fmt.Errorf("%d runs were invalid (the generator, not the server, may have set the numbers)", invalid)
	}
	return nil
}
