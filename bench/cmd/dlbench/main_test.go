package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"dlinfma/bench/internal/stats"
	"dlinfma/bench/internal/work"
)

// TestBenchmarkJSON holds BENCHMARK.json to the limits it is refused
// outside of, and to this harness: the workloads it names are the ones the
// harness runs, and every metric's declared unit is the one its name states.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if strings.Join(names, ",") != strings.Join(work.Names, ",") {
		t.Errorf("workloads %v, the harness runs %v", names, work.Names)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(m metricSpec, gated bool) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
		}
		if u, err := stats.Unit(m.Name); err != nil || u != m.Unit {
			t.Errorf("metric %s: declared in %q, its name states %q (%v)", m.Name, m.Unit, u, err)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if gated && (m.Bound <= 0 || m.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if !gated && m.Bound != 0 {
			t.Errorf("layer metric %s has a bound", m.Name)
		}
	}
	for _, w := range names {
		seen[w] = true
	}
	hasSetup := false
	for _, m := range doc.EndToEnd {
		check(m, true)
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range doc.PerLayer {
		check(m, false)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d layer metrics", n)
	}
}

func TestConform(t *testing.T) {
	declared := []metricSpec{{Name: "setup_s", Unit: "s"}, {Name: "latency_p50_ms", Unit: "ms"}}
	ok := []stats.Metric{stats.Dur("latency_p50_ms", 1), stats.Dur("setup_s", 1)}
	if err := conform(declared, ok); err != nil {
		t.Error(err)
	}
	for name, got := range map[string][]stats.Metric{
		"missing":    ok[:1],
		"undeclared": append(ok[:2:2], stats.Num("server_rss_mb", 1)),
		"wrong unit": {ok[0], {Name: "setup_s", Value: 1, Unit: "ms"}},
	} {
		if conform(declared, got) == nil {
			t.Errorf("%s metric accepted", name)
		}
	}
}
