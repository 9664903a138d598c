package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testGated = []gatedMetric{
	{Name: "throughput_ops_s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Better: "lower", Bound: 0.25},
}

// writeRuns lays out n alternating pairs the way scripts/pairs.sh does, the
// change's throughput and p50 scaled by the given factors.
func writeRuns(t *testing.T, n int, tput, p50 float64) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < n; i++ {
		seed := 100 + i
		base := 1000 + 10*float64(i)
		runs := map[string]string{
			"parent": fmt.Sprintf(`{"correct":true,"attempted":50,"failed":0,"metrics":{"throughput_ops_s":{"value":%g,"unit":"ops/s"},"latency_p50_ms":{"value":%g,"unit":"ms"}}}`, base, 1.0),
			"change": fmt.Sprintf(`{"correct":true,"attempted":50,"failed":0,"metrics":{"throughput_ops_s":{"value":%g,"unit":"ops/s"},"latency_p50_ms":{"value":%g,"unit":"ms"}}}`, base*tput, p50),
		}
		first, second := "parent", "change"
		if i%2 == 1 {
			first, second = second, first
		}
		for pos, side := range []string{first, second} {
			name := fmt.Sprintf("%d.%d.%s.json", seed, pos+1, side)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(runs[side]+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

func TestPairsSummary(t *testing.T) {
	pairs, err := loadPairs(writeRuns(t, 10, 1.2, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10 || pairs[0].first != "parent" || pairs[1].first != "change" {
		t.Fatalf("pairs %+v", pairs)
	}
	vs := summarise(pairs, testGated)
	if v := vs[0]; v.better != 10 || v.parentMed != 1045 || v.changeMed != 1254 || v.regressed {
		t.Errorf("throughput verdict %+v", v)
	}
	if v := vs[1]; v.better != 10 || v.parentIQR != 0 || v.changeMed != 0.8 {
		t.Errorf("p50 verdict %+v", v)
	}
	var out bytes.Buffer
	if err := writePairs(&out, pairs, testGated); err != nil {
		t.Fatalf("an improvement failed the gate: %v", err)
	}
	if !strings.Contains(out.String(), "| `throughput_ops_s` | 1045 | 1254 | +20.0 % | 10/10 |") {
		t.Errorf("summary:\n%s", out.String())
	}
}

func TestPairsGate(t *testing.T) {
	// Worse than the 25 % bound in every pair: the gate fails, by name.
	pairs, err := loadPairs(writeRuns(t, 10, 1, 1.3))
	if err != nil {
		t.Fatal(err)
	}
	err = writePairs(&bytes.Buffer{}, pairs, testGated)
	if err == nil || !strings.Contains(err.Error(), "latency_p50_ms") || strings.Contains(err.Error(), "throughput") {
		t.Fatalf("gate: %v", err)
	}
	// Worse, but inside the bound: not a regression the gate names.
	pairs, _ = loadPairs(writeRuns(t, 10, 0.9, 1.2))
	if err := writePairs(&bytes.Buffer{}, pairs, testGated); err != nil {
		t.Fatalf("within the bound: %v", err)
	}
}

func TestPairsMissingRun(t *testing.T) {
	dir := writeRuns(t, 3, 1.1, 1)
	if err := os.WriteFile(filepath.Join(dir, "101.1.change.json"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	pairs, err := loadPairs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if pairs[1].change != nil || summarise(pairs, testGated)[0].pairs != 2 {
		t.Fatalf("an empty report was counted: %+v", pairs[1])
	}
	var out bytes.Buffer
	err = writePairs(&out, pairs, testGated)
	if !strings.Contains(out.String(), "1 of 3 pairs lack a run's report") {
		t.Errorf("summary:\n%s", out.String())
	}
	// A missing run fails the gate even when the other pairs are fine.
	if err == nil || !strings.Contains(err.Error(), "1 of 3 pairs lack a run's report") {
		t.Errorf("gate: %v", err)
	}
}

// microRows are one `go test -bench` output's lines for the rows of
// microGates, in that order, each with its gated value as the verb.
var microRows = []string{
	"BenchmarkServeQueriesParallel/shards=1-8  24963  46939 ns/op  %g queries/sec",
	"BenchmarkServeQueriesBatch/shards=1-8  5624  221249 ns/op  %g queries/sec",
	"BenchmarkBatchHandler-8  24000  51200 ns/op  %g ns/key  1203 B/op  9 allocs/op",
	"BenchmarkServeStreamIngest/shards=2-8  2989  370137 ns/op  %g fixes/sec",
	"BenchmarkFitParallel/workers=1-8  26  28470525 ns/op  %g cpu-ns/op  1919970 B/op  2934 allocs/op",
	"BenchmarkRestoreSnapshot-8  4  277916301 ns/op  719640 addrs/s  %g cpu-ns/op  61684564 B/op  1649 allocs/op",
	"BenchmarkPoolSealGrowth-8  5  204849556 ns/op  %g B/location  3144113 ns/seal-w1  3829986 ns/seal-w50",
	"BenchmarkReplayWAL-8  36  32164058 ns/op  %g cpu-ns/record  345.2 ns/record  15425090 B/op  23919 allocs/op",
	"BenchmarkRestartHistory/windows=16-8  25  40001588 ns/op  %g cpu-ns/op  25293114 B/op  65903 allocs/op",
	"BenchmarkRestartHistory/windows=16-8  25  40001588 ns/op  %g winlog-B/trip",
}

// writeMicroRuns lays out ten alternating pairs of `go test -bench` outputs
// the way scripts/pairs.sh's micro workload does: each gated row's change
// value is the parent's times factor[row] (1 when unset), the row left out
// of every run when the factor is 0 and out of the parent's runs only when
// it is negative.
func writeMicroRuns(t *testing.T, factor map[string]float64) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < 10; i++ {
		runs := map[string]*strings.Builder{"parent": {}, "change": {}}
		for _, b := range runs {
			b.WriteString("goos: linux\ngoarch: amd64\npkg: dlinfma\n")
		}
		for r, g := range microGates {
			f, ok := factor[g.Name]
			if !ok {
				f = 1
			}
			if f == 0 {
				continue
			}
			base := float64(1000 * (r + 1) * (100 + i))
			if f > 0 {
				fmt.Fprintf(runs["parent"], microRows[r]+"\n", base)
			}
			fmt.Fprintf(runs["change"], microRows[r]+"\n", base*math.Abs(f))
		}
		first, second := "parent", "change"
		if i%2 == 1 {
			first, second = second, first
		}
		for pos, side := range []string{first, second} {
			runs[side].WriteString("PASS\n")
			name := fmt.Sprintf("%d.%d.%s.txt", 1+i, pos+1, side)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(runs[side].String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

// TestPairsMicroGate runs `go test -bench` outputs through the parser and the
// one regression rule with the gated rows of make bench-regress.
func TestPairsMicroGate(t *testing.T) {
	const (
		parallel = "BenchmarkServeQueriesParallel/shards=1 queries/sec"
		batch    = "BenchmarkServeQueriesBatch/shards=1 queries/sec"
		fit      = "BenchmarkFitParallel/workers=1 cpu-ns/op"
		restore  = "BenchmarkRestoreSnapshot cpu-ns/op"
		handler  = "BenchmarkBatchHandler ns/key"
		growth   = "BenchmarkPoolSealGrowth B/location"
		replay   = "BenchmarkReplayWAL cpu-ns/record"
	)
	for _, tc := range []struct {
		name    string
		factor  map[string]float64
		fail    []string // named in the error; none: the gate passes
		notFail []string
		print   string // in the summary
	}{
		{name: "improvement", factor: map[string]float64{parallel: 2, batch: 1.5, fit: 0.5, restore: 0.7}},
		{name: "within the bound", factor: map[string]float64{parallel: 0.9, fit: 1.1}},
		{name: "throughput regression", factor: map[string]float64{batch: 0.8, fit: 0.7},
			fail: []string{batch}, notFail: []string{fit, parallel}},
		{name: "ns/op is lower-is-better", factor: map[string]float64{fit: 1.3, restore: 1.3, parallel: 1.3},
			fail: []string{fit, restore}, notFail: []string{parallel}},
		{name: "ns/key is lower-is-better", factor: map[string]float64{handler: 1.3, batch: 1.3},
			fail: []string{handler}, notFail: []string{batch}},
		{name: "row absent from every run", factor: map[string]float64{restore: 0},
			fail: []string{"in no complete pair: " + restore}, notFail: []string{parallel}},
		{name: "B/location is lower-is-better", factor: map[string]float64{growth: 1.3},
			fail: []string{growth}, notFail: []string{parallel}},
		{name: "cpu-ns/record is lower-is-better", factor: map[string]float64{replay: 1.3, parallel: 1.3},
			fail: []string{replay}, notFail: []string{parallel}},
		// A row the parent's benchmarks do not report yet has nothing to
		// compare with; a row only the change lacks is missing.
		{name: "row new in the change", factor: map[string]float64{growth: -1},
			print: "| `" + growth + "` | 0 | 731500 | n/a | 0/0 | 0 | true | 15 % | new: no parent run reports it |"},
		{name: "row absent from the change", factor: map[string]float64{growth: 1, restore: -1, handler: 0},
			fail: []string{"in no complete pair: " + handler}, notFail: []string{restore}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pairs, err := loadPairs(writeMicroRuns(t, tc.factor))
			if err != nil {
				t.Fatal(err)
			}
			if len(pairs) != 10 || pairs[1].first != "change" || pairs[1].parent == nil || pairs[1].change == nil {
				t.Fatalf("pairs %+v", pairs)
			}
			var out bytes.Buffer
			err = writePairs(&out, pairs, microGates)
			if !strings.Contains(out.String(), tc.print) {
				t.Errorf("summary lacks %q:\n%s", tc.print, out.String())
			}
			if len(tc.fail) == 0 {
				if err != nil {
					t.Fatalf("gate failed: %v\n%s", err, out.String())
				}
				return
			}
			if err == nil {
				t.Fatalf("gate passed:\n%s", out.String())
			}
			for _, name := range tc.fail {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("error %q does not name %s", err, name)
				}
			}
			for _, name := range tc.notFail {
				if strings.Contains(err.Error(), name) {
					t.Errorf("error %q names %s", err, name)
				}
			}
		})
	}
}
