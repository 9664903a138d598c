package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The -pairs mode summarises alternating parent/change runs (scripts/pairs.sh
// writes them): every run, then per gated metric the medians, the delta, how
// many pairs the change is better in, the parent's interquartile range, and
// the verdict of the one regression rule — the change's median is worse than
// the parent's by more than the metric's bound.

// runReport is one run's report: the last line bench/run.sh prints, or a
// `go test -bench` output read into the same form by benchRun.
type runReport struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricValue is one metric of a run report.
type metricValue struct {
	Value float64 `json:"value"`
}

// gatedMetric is one metric the verdict covers: an end_to_end entry of
// BENCHMARK.json, or a row of microGates.
type gatedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// microGates are the micro-benchmark rows `make bench-regress` compares the
// change with its parent on (scripts/pairs.sh's micro workload runs them). A
// row's metric is named "<benchmark> <unit>", the benchmark's name without
// its -GOMAXPROCS suffix.
var microGates = []gatedMetric{
	{Name: "BenchmarkServeQueriesParallel/shards=1 queries/sec", Unit: "queries/sec", Better: "higher", Bound: 0.15},
	{Name: "BenchmarkServeQueriesBatch/shards=1 queries/sec", Unit: "queries/sec", Better: "higher", Bound: 0.15},
	{Name: "BenchmarkBatchHandler ns/key", Unit: "ns/key", Better: "lower", Bound: 0.15},
	{Name: "BenchmarkServeStreamIngest/shards=2 fixes/sec", Unit: "fixes/sec", Better: "higher", Bound: 0.15},
	{Name: "BenchmarkFitParallel/workers=1 cpu-ns/op", Unit: "cpu-ns/op", Better: "lower", Bound: 0.15},
	{Name: "BenchmarkRestoreSnapshot addrs/s", Unit: "addrs/s", Better: "higher", Bound: 0.15},
	{Name: "BenchmarkPoolSealGrowth B/location", Unit: "B/location", Better: "lower", Bound: 0.15},
	{Name: "BenchmarkReplayWAL cpu-ns/record", Unit: "cpu-ns/record", Better: "lower", Bound: 0.15},
}

// procsSuffix is the -GOMAXPROCS suffix `go test` puts on a benchmark's name.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// benchRun reads one `go test -bench` output into a run report: every
// result's ns/op and ReportMetric units, one metric per row and unit. A run
// with no result has no metrics, the same as a run that printed no report.
func benchRun(out []byte) (runReport, error) {
	rep, err := parseOutput(bytes.NewReader(out), io.Discard)
	r := runReport{Attempted: len(rep.Results), Failed: rep.Failures}
	if len(rep.Results) > 0 {
		r.Metrics = map[string]metricValue{}
	}
	for _, res := range rep.Results {
		row := procsSuffix.ReplaceAllString(res.Name, "")
		r.Metrics[row+" ns/op"] = metricValue{res.NsPerOp}
		for unit, v := range res.Extra {
			r.Metrics[row+" "+unit] = metricValue{v}
		}
	}
	return r, err
}

// pair is one seed's two runs; a side is nil when its run left no report.
type pair struct {
	seed   int64
	first  string // "parent" or "change": which side ran first
	parent *runReport
	change *runReport
}

// runFile names one run's report: <seed>.<position>.<side>.json for a
// bench/run.sh report, .txt for a `go test -bench` output.
var runFile = regexp.MustCompile(`^(\d+)\.([12])\.(parent|change)\.(json|txt)$`)

// loadPairs reads every run report in dir, pairs them by seed, in seed order.
func loadPairs(dir string) ([]pair, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	bySeed := map[int64]*pair{}
	for _, e := range entries {
		m := runFile.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		seed, _ := strconv.ParseInt(m[1], 10, 64)
		p := bySeed[seed]
		if p == nil {
			p = &pair{seed: seed}
			bySeed[seed] = p
		}
		if m[2] == "1" {
			p.first = m[3]
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var r runReport
		switch {
		case m[4] == "txt":
			if r, err = benchRun(b); err != nil {
				return nil, fmt.Errorf("%s: %w", e.Name(), err)
			}
		case len(strings.TrimSpace(string(b))) > 0:
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", e.Name(), err)
			}
		}
		if r.Metrics == nil {
			continue // the run printed no report: counted as missing
		}
		if m[3] == "parent" {
			p.parent = &r
		} else {
			p.change = &r
		}
	}
	pairs := make([]pair, 0, len(bySeed))
	for _, p := range bySeed {
		pairs = append(pairs, *p)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].seed < pairs[j].seed })
	return pairs, nil
}

// loadGated reads BENCHMARK.json's end-to-end metrics.
func loadGated(path string) ([]gatedMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []gatedMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// quantile is the linearly interpolated q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// verdict is one metric's summary over the complete pairs.
type verdict struct {
	metric    gatedMetric
	parentMed float64
	changeMed float64
	parentIQR float64
	better    int // pairs the change is better in
	pairs     int
	regressed bool // the change's median is worse than the parent's by more than the bound
	// added: no parent run reports the metric and every change run does,
	// so there is nothing to compare it with yet; changeMed is its median.
	added bool
}

// summarise computes every gated metric's verdict over the pairs with both
// runs present.
func summarise(pairs []pair, gated []gatedMetric) []verdict {
	var out []verdict
	for _, g := range gated {
		v := verdict{metric: g}
		var ps, cs, added []float64
		complete := 0
		for _, p := range pairs {
			if p.parent == nil || p.change == nil {
				continue
			}
			complete++
			pv, pok := p.parent.Metrics[g.Name]
			cv, cok := p.change.Metrics[g.Name]
			if !pok && cok {
				added = append(added, cv.Value)
			}
			if !pok || !cok {
				continue
			}
			ps, cs = append(ps, pv.Value), append(cs, cv.Value)
			if gain(g, pv.Value, cv.Value) > 0 {
				v.better++
			}
		}
		v.pairs = len(ps)
		sort.Float64s(ps)
		sort.Float64s(cs)
		v.parentMed, v.changeMed = quantile(ps, 0.5), quantile(cs, 0.5)
		v.parentIQR = quantile(ps, 0.75) - quantile(ps, 0.25)
		v.regressed = v.parentMed != 0 && -gain(g, v.parentMed, v.changeMed)/math.Abs(v.parentMed) > g.Bound
		if v.added = v.pairs == 0 && complete > 0 && len(added) == complete; v.added {
			sort.Float64s(added)
			v.changeMed = quantile(added, 0.5)
		}
		out = append(out, v)
	}
	return out
}

// gain is how much better the change's value is than the parent's: > 0 when
// it is higher for a higher-is-better metric, lower for a lower-is-better one.
func gain(g gatedMetric, parent, change float64) float64 {
	if g.Better == "lower" {
		return parent - change
	}
	return change - parent
}

// writePairs prints every run and the summary table as Markdown, and returns
// an error naming every gated metric whose median regressed beyond its bound
// or that no complete pair carries, and when a run left no report.
func writePairs(w io.Writer, pairs []pair, gated []gatedMetric) error {
	fmt.Fprint(w, "| seed | first |")
	for _, g := range gated {
		fmt.Fprintf(w, " %s parent → change |", g.Name)
	}
	fmt.Fprintln(w, " failed ops parent / change |")
	fmt.Fprint(w, "|---|---|")
	for range gated {
		fmt.Fprint(w, "---|")
	}
	fmt.Fprintln(w, "---|")
	missing := 0
	for _, p := range pairs {
		fmt.Fprintf(w, "| %d | %s |", p.seed, p.first)
		for _, g := range gated {
			fmt.Fprintf(w, " %s → %s |", value(p.parent, g.Name), value(p.change, g.Name))
		}
		fmt.Fprintf(w, " %s / %s |\n", failed(p.parent), failed(p.change))
		if p.parent == nil || p.change == nil {
			missing++
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| metric | parent median | change median | delta | better in | parent IQR | delta beyond IQR | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	var regressed, absent []string
	for _, v := range summarise(pairs, gated) {
		delta := "n/a"
		if v.parentMed != 0 {
			delta = fmt.Sprintf("%+.1f %%", 100*(v.changeMed-v.parentMed)/v.parentMed)
		}
		verdict := "ok"
		switch {
		case v.added:
			verdict = "new: no parent run reports it"
		case v.pairs == 0:
			verdict = "missing"
			absent = append(absent, v.metric.Name)
		case v.regressed:
			verdict = "regressed"
			regressed = append(regressed, v.metric.Name)
		}
		fmt.Fprintf(w, "| `%s` | %.6g | %.6g | %s | %d/%d | %.4g | %v | %.0f %% | %s |\n", v.metric.Name, v.parentMed,
			v.changeMed, delta, v.better, v.pairs, v.parentIQR, math.Abs(v.changeMed-v.parentMed) > v.parentIQR,
			100*v.metric.Bound, verdict)
	}
	var errs []string
	if missing > 0 {
		fmt.Fprintf(w, "\n%d of %d pairs lack a run's report and are left out of the summary\n", missing, len(pairs))
		errs = append(errs, fmt.Sprintf("%d of %d pairs lack a run's report", missing, len(pairs)))
	}
	if len(regressed) > 0 {
		errs = append(errs, "median worse than the bound: "+strings.Join(regressed, ", "))
	}
	if len(absent) > 0 {
		errs = append(errs, "in no complete pair: "+strings.Join(absent, ", "))
	}
	if len(errs) > 0 {
		return errors.New(strings.Join(errs, "; "))
	}
	return nil
}

func value(r *runReport, name string) string {
	if r == nil {
		return "missing"
	}
	m, ok := r.Metrics[name]
	if !ok {
		return "missing"
	}
	return strconv.FormatFloat(m.Value, 'g', 6, 64)
}

func failed(r *runReport) string {
	if r == nil {
		return "missing"
	}
	return fmt.Sprintf("%d of %d", r.Failed, r.Attempted)
}

// runPairs is the -pairs mode, run from the checkout's root: `go test -bench`
// outputs are gated on microGates, bench/run.sh reports on BENCHMARK.json.
func runPairs(dir string) error {
	pairs, err := loadPairs(dir)
	if err != nil {
		return err
	}
	if len(pairs) == 0 {
		return fmt.Errorf("no run reports in %s", dir)
	}
	gated := microGates
	if txt, _ := filepath.Glob(filepath.Join(dir, "*.txt")); len(txt) == 0 {
		if gated, err = loadGated("BENCHMARK.json"); err != nil {
			return err
		}
	}
	return writePairs(os.Stdout, pairs, gated)
}
