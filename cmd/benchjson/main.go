// Command benchjson converts `go test -bench` output into a machine-readable
// JSON file while passing the text through unchanged, so it sits in a pipe:
//
//	go test -bench 'FitParallel|PredictBatch' -benchmem -run '^$' . | benchjson -out BENCH_locmatcher.json
//
// Each benchmark result line becomes one record with ns/op, B/op and
// allocs/op (when -benchmem is on) plus any custom ReportMetric units.
//
// With -pairs it reads no benchmark output: it summarises a directory of
// alternating parent/change runs that scripts/pairs.sh wrote — bench/run.sh
// reports, gated on the end-to-end metrics of the BENCHMARK.json in the
// directory it runs in, or `go test -bench` outputs, gated on the rows of
// microGates — and exits 1 when a gated metric's median over the change's
// runs is worse than the parent's by more than its bound, or when a run's
// report or a gated metric is missing:
//
//	benchjson -pairs .bench_build/pairs/micro-1
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
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
	pairsDir := flag.String("pairs", "", "summarise the parent/change run reports in this directory instead")
	flag.Parse()

	if *pairsDir != "" {
		if err := runPairs(*pairsDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	rep, err := parseOutput(os.Stdin, os.Stdout)
	if err != nil {
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
}

// parseOutput reads `go test -bench` output into a report, copying every
// line to echo.
func parseOutput(in io.Reader, echo io.Writer) (Report, error) {
	var rep Report
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
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
	return rep, sc.Err()
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
	r := Result{Name: fields[0], Iterations: iters}
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
