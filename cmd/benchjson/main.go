// Command benchjson converts `go test -bench` output into a machine-readable
// JSON file while passing the text through unchanged, so it sits in a pipe:
//
//	go test -bench 'FitParallel|PredictBatch' -benchmem -run '^$' . | benchjson -out BENCH_locmatcher.json
//
// Each benchmark result line becomes one record with ns/op, B/op and
// allocs/op (when -benchmem is on) plus any custom ReportMetric units.
//
// With -pairs it reads no benchmark output: it summarises a directory of
// alternating parent/change bench/run.sh reports (scripts/pairs.sh) against
// the BENCHMARK.json of the directory it runs in, and exits 1 when a gated
// metric is worse than its bound in at least nine pairs of ten:
//
//	benchjson -pairs .bench_build/pairs/batch_lookup-5401
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Shards is the shard-count dimension parsed from a "shards=N" sub-
	// benchmark segment (BenchmarkServeQueries/shards=4-8), so per-shard
	// throughput rows can be charted without re-parsing names. Zero when the
	// benchmark has no shard dimension.
	Shards int `json:"shards,omitempty"`
	// Traced marks rows from a tracing-enabled benchmark variant
	// (BenchmarkServeQueriesTraced), so trace overhead can be compared
	// against the untraced row of the same shape.
	Traced bool `json:"traced,omitempty"`
	// Batch marks rows from batched-operation benchmarks
	// (BenchmarkServeQueriesBatch, BenchmarkPredictBatch), where one op
	// covers many items and the per-item throughput metric is the
	// comparable number, not ns/op.
	Batch      bool               `json:"batch,omitempty"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

// Report is the emitted file: environment header plus all results.
type Report struct {
	Goos     string   `json:"goos,omitempty"`
	Goarch   string   `json:"goarch,omitempty"`
	Pkg      string   `json:"pkg,omitempty"`
	CPU      string   `json:"cpu,omitempty"`
	Results  []Result `json:"results"`
	Failures int      `json:"failures"`
}

func main() {
	out := flag.String("out", "BENCH_locmatcher.json", "output JSON path")
	baseline := flag.String("baseline", "", "committed report to gate against (empty: no gating)")
	gate := flag.String("gate", "", "benchmark name prefix to gate, e.g. BenchmarkServeQueriesParallel/shards=1")
	gateMetric := flag.String("gate-metric", "queries/sec", "metric to compare: ns/op (lower is better) or a ReportMetric unit (higher is better)")
	maxRegress := flag.Float64("max-regress-pct", 15, "fail when the gated metric regresses by more than this percentage")
	pairsDir := flag.String("pairs", "", "summarise the parent/change run reports in this directory instead")
	flag.Parse()

	if *pairsDir != "" {
		if err := runPairs(*pairsDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	var rep Report
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line); ok {
				rep.Results = append(rep.Results, r)
			}
		case strings.Contains(line, "--- FAIL") || strings.HasPrefix(line, "FAIL"):
			rep.Failures++
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(rep.Results), *out)

	if *baseline != "" && *gate != "" {
		base, err := loadReport(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: baseline:", err)
			os.Exit(1)
		}
		if err := gateCheck(rep, base, *gate, *gateMetric, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: gate:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: gate %s (%s) within %.0f%% of baseline\n",
			*gate, *gateMetric, *maxRegress)
	}
}

// loadReport reads a previously emitted report file.
func loadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(data, &rep)
}

// metricOf pulls the gated metric out of one result; ok is false when the
// row doesn't carry it.
func metricOf(r Result, metric string) (float64, bool) {
	if metric == "ns/op" {
		return r.NsPerOp, r.NsPerOp > 0
	}
	v, ok := r.Extra[metric]
	return v, ok
}

// gateRow finds the first result whose name starts with the gate prefix and
// carries the metric. Prefix matching keeps gates portable across machines:
// result names end in "-GOMAXPROCS", which differs between runners.
func gateRow(rep Report, gate, metric string) (Result, bool) {
	for _, r := range rep.Results {
		if !strings.HasPrefix(r.Name, gate) {
			continue
		}
		if _, ok := metricOf(r, metric); ok {
			return r, true
		}
	}
	return Result{}, false
}

// gateCheck compares the gated metric of the fresh run against the baseline
// and errors when it regressed by more than maxPct percent. "ns/op" is
// treated as lower-is-better; every other metric (custom ReportMetric units
// like "queries/sec") as higher-is-better.
func gateCheck(cur, base Report, gate, metric string, maxPct float64) error {
	cr, ok := gateRow(cur, gate, metric)
	if !ok {
		return fmt.Errorf("run has no result %q with metric %q", gate, metric)
	}
	br, ok := gateRow(base, gate, metric)
	if !ok {
		return fmt.Errorf("baseline has no result %q with metric %q", gate, metric)
	}
	curV, _ := metricOf(cr, metric)
	baseV, _ := metricOf(br, metric)
	if baseV <= 0 {
		return fmt.Errorf("baseline %s %s is %v, cannot gate", gate, metric, baseV)
	}
	var regressPct float64
	if metric == "ns/op" {
		regressPct = (curV - baseV) / baseV * 100
	} else {
		regressPct = (baseV - curV) / baseV * 100
	}
	if regressPct > maxPct {
		return fmt.Errorf("%s %s regressed %.1f%% (baseline %.1f, got %.1f, limit %.0f%%)",
			gate, metric, regressPct, baseV, curV, maxPct)
	}
	return nil
}

// parseBench parses one result line, e.g.
// "BenchmarkFitParallel/workers=2-8  12  94811304 ns/op  1200 B/op  24 allocs/op".
func parseBench(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{
		Name:       fields[0],
		Iterations: iters,
		Shards:     parseShards(fields[0]),
		Traced:     strings.Contains(fields[0], "Traced"),
		Batch:      strings.Contains(fields[0], "Batch"),
	}
	// The rest alternate value/unit.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsOp = v
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = v
		}
	}
	return r, true
}

// parseShards extracts N from a "shards=N" segment of a benchmark name
// (segments are separated by '/', with the trailing "-GOMAXPROCS" suffix on
// the last one). Returns 0 when the name carries no shard dimension.
func parseShards(name string) int {
	i := strings.Index(name, "shards=")
	if i < 0 {
		return 0
	}
	rest := name[i+len("shards="):]
	if j := strings.IndexAny(rest, "-/"); j >= 0 {
		rest = rest[:j]
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return 0
	}
	return n
}
