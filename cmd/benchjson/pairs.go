package main

import (
	"encoding/json"
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

// The -pairs mode summarises alternating parent/change runs of bench/run.sh
// (scripts/pairs.sh writes them): every run, then per end-to-end metric of
// BENCHMARK.json the medians, the delta, how many pairs the change is better
// in, the parent's interquartile range, and how many pairs it is worse than
// the metric's bound in.

// runReport is the last line bench/run.sh prints for one run.
type runReport struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// gatedMetric is one end_to_end entry of BENCHMARK.json.
type gatedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// pair is one seed's two runs; a side is nil when its run left no report.
type pair struct {
	seed   int64
	first  string // "parent" or "change": which side ran first
	parent *runReport
	change *runReport
}

// runFile names one run's report: <seed>.<position>.<side>.json.
var runFile = regexp.MustCompile(`^(\d+)\.([12])\.(parent|change)\.json$`)

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
		if len(strings.TrimSpace(string(b))) > 0 {
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
	metric         gatedMetric
	parentMed      float64
	changeMed      float64
	parentIQR      float64
	better, worse  int // pairs the change is better in, worse beyond the bound in
	pairs          int
	regressedPairs bool // worse beyond the bound in ≥ 9/10 of the pairs
}

// summarise computes every gated metric's verdict over the pairs with both
// runs present.
func summarise(pairs []pair, gated []gatedMetric) []verdict {
	var out []verdict
	for _, g := range gated {
		v := verdict{metric: g}
		var ps, cs []float64
		for _, p := range pairs {
			if p.parent == nil || p.change == nil {
				continue
			}
			pv, pok := p.parent.Metrics[g.Name]
			cv, cok := p.change.Metrics[g.Name]
			if !pok || !cok {
				continue
			}
			ps, cs = append(ps, pv.Value), append(cs, cv.Value)
			gain := cv.Value - pv.Value // > 0: the change is higher
			if g.Better == "lower" {
				gain = -gain
			}
			if gain > 0 {
				v.better++
			}
			if pv.Value != 0 && -gain/math.Abs(pv.Value) > g.Bound {
				v.worse++
			}
		}
		v.pairs = len(ps)
		sort.Float64s(ps)
		sort.Float64s(cs)
		v.parentMed, v.changeMed = quantile(ps, 0.5), quantile(cs, 0.5)
		v.parentIQR = quantile(ps, 0.75) - quantile(ps, 0.25)
		v.regressedPairs = v.pairs > 0 && 10*v.worse >= 9*v.pairs
		out = append(out, v)
	}
	return out
}

// writePairs prints every run and the summary table as Markdown, and returns
// an error when a gated metric regressed beyond its bound in ≥ 9/10 pairs.
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
	fmt.Fprintln(w, "| metric | parent median | change median | delta | better in | parent IQR | delta beyond IQR | worse than bound in |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	var regressed []string
	for _, v := range summarise(pairs, gated) {
		delta := "n/a"
		if v.parentMed != 0 {
			delta = fmt.Sprintf("%+.1f %%", 100*(v.changeMed-v.parentMed)/v.parentMed)
		}
		fmt.Fprintf(w, "| `%s` | %.6g | %.6g | %s | %d/%d | %.4g | %v | %d/%d |\n", v.metric.Name, v.parentMed,
			v.changeMed, delta, v.better, v.pairs, v.parentIQR, math.Abs(v.changeMed-v.parentMed) > v.parentIQR, v.worse, v.pairs)
		if v.regressedPairs {
			regressed = append(regressed, v.metric.Name)
		}
	}
	if missing > 0 {
		fmt.Fprintf(w, "\n%d of %d pairs lack a run's report and are left out of the summary\n", missing, len(pairs))
	}
	if len(regressed) > 0 {
		return fmt.Errorf("worse than the bound in at least 9/10 pairs: %s", strings.Join(regressed, ", "))
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

// runPairs is the -pairs mode, run from the checkout's root.
func runPairs(dir string) error {
	gated, err := loadGated("BENCHMARK.json")
	if err != nil {
		return err
	}
	pairs, err := loadPairs(dir)
	if err != nil {
		return err
	}
	if len(pairs) == 0 {
		return fmt.Errorf("no run reports in %s", dir)
	}
	return writePairs(os.Stdout, pairs, gated)
}
