package main

import (
	"bytes"
	"fmt"
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
	if v := vs[0]; v.better != 10 || v.worse != 0 || v.parentMed != 1045 || v.changeMed != 1254 || v.regressedPairs {
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
	_ = writePairs(&out, pairs, testGated)
	if !strings.Contains(out.String(), "1 of 3 pairs lack a run's report") {
		t.Errorf("summary:\n%s", out.String())
	}
}
