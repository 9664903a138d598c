// Package stats holds the benchmark's arithmetic: exact order statistics over
// raw latency samples, the quartile rule the acceptance check uses, and the
// Metric type whose unit is derived from its name, so a value can never be
// emitted in a unit other than the one its name states.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Metric is one reported number. Build it with Dur, Per or Num; the unit is
// always the one the name's suffix states.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// timeUnits maps a name's unit token to the duration of one such unit.
var timeUnits = map[string]time.Duration{
	"ns": time.Nanosecond, "us": time.Microsecond, "ms": time.Millisecond, "s": time.Second,
}

// otherUnits maps the remaining unit tokens to their printed unit.
var otherUnits = map[string]string{
	"mb": "MB", "bytes": "B", "m": "m", "share": "ratio", "pct": "%",
	"allocs": "count", "epochs": "count", "stays": "count", "samples": "count",
}

// unitToken returns the part of a metric name that states its unit: the
// token before "_per_" when the name is a rate ("..._ns_per_key"), the last
// token otherwise.
func unitToken(name string) string {
	if i := strings.LastIndex(name, "_per_"); i >= 0 {
		name = name[:i]
	}
	return name[strings.LastIndexAny(name, "_.")+1:]
}

// Unit returns the unit a metric name states, or an error for a name that
// states none.
func Unit(name string) (string, error) {
	if strings.HasSuffix(name, "_ops_s") {
		return "ops/s", nil
	}
	tok := unitToken(name)
	if _, ok := timeUnits[tok]; ok {
		return tok, nil
	}
	if u, ok := otherUnits[tok]; ok {
		return u, nil
	}
	return "", fmt.Errorf("stats: metric name %q states no unit", name)
}

func mustUnit(name string) string {
	u, err := Unit(name)
	if err != nil {
		panic(err)
	}
	return u
}

// Dur reports a duration under a name that states a time unit; the value is
// d expressed in that unit.
func Dur(name string, d time.Duration) Metric { return Per(name, d, 1) }

// Per reports total/n in the time unit the name states (sub-unit precision
// is kept: 30 ns per call over a million calls is 30.0, not 0 or 30000).
func Per(name string, total time.Duration, n int) Metric {
	unit := mustUnit(name)
	one, ok := timeUnits[unit]
	if !ok {
		panic(fmt.Sprintf("stats: %q is not a duration metric", name))
	}
	return Metric{Name: name, Value: float64(total) / float64(one) / float64(n), Unit: unit}
}

// Num reports a value that is not a duration (a count, a ratio, a size, a
// rate). Duration names are refused so a raw time.Duration cannot slip in.
func Num(name string, v float64) Metric {
	unit := mustUnit(name)
	if _, isTime := timeUnits[unit]; isTime {
		panic(fmt.Sprintf("stats: %q is a duration metric; use Dur or Per", name))
	}
	return Metric{Name: name, Value: v, Unit: unit}
}

// SortNS sorts raw nanosecond samples in place and returns them.
func SortNS(ns []int64) []int64 {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return ns
}

// Percentile returns the exact nearest-rank percentile p (0 < p <= 100) of
// sorted samples: the smallest sample with at least p% of the samples at or
// below it.
func Percentile(sorted []int64, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return time.Duration(sorted[max(rank(len(sorted), p), 1)-1])
}

// rank is the number of samples at or below the nearest-rank percentile p of
// n samples. The product is nudged down so that 99.9 % of 10,000 is 9,990
// and not, by floating-point excess, 9,991.
func rank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailSteps are the candidate tail percentiles, highest first.
var tailSteps = []float64{99.9, 99, 90}

// Tail returns the highest of p99.9, p99 and p90 that has at least ten
// samples beyond it, with its value; (50, median) when even p90 has not.
func Tail(sorted []int64) (pct float64, v time.Duration) {
	for _, p := range tailSteps {
		if len(sorted)-rank(len(sorted), p) >= 10 {
			return p, Percentile(sorted, p)
		}
	}
	return 50, Percentile(sorted, 50)
}

// Quartiles returns the first quartile, median and third quartile of v by
// the rule of Python's statistics.quantiles(v, n=4) (the "exclusive"
// method), which is what the acceptance check computes. v needs two values.
func Quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Median returns the median of v (0 for an empty slice).
func Median(v []float64) float64 {
	switch len(v) {
	case 0:
		return 0
	case 1:
		return v[0]
	}
	_, med, _ := Quartiles(v)
	return med
}

// Spread is the interquartile distance as a share of the median.
func Spread(v []float64) float64 {
	q1, med, q3 := Quartiles(v)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}
