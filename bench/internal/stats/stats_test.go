package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestPercentileAgainstSortedReference checks the exact nearest-rank rule on
// random samples against a brute-force count.
func TestPercentileAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 10, 101, 1000, 12345} {
		ns := make([]int64, n)
		for i := range ns {
			ns[i] = rng.Int63n(1_000_000)
		}
		SortNS(ns)
		if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
			t.Fatal("SortNS did not sort")
		}
		for _, p := range []float64{50, 90, 99, 99.9, 100} {
			got := int64(Percentile(ns, p))
			atOrBelow := sort.Search(n, func(i int) bool { return ns[i] > got })
			below := sort.Search(n, func(i int) bool { return ns[i] >= got })
			need := (int(math.Round(p*10))*n + 999) / 1000 // ceil(p% of n), in integers
			if atOrBelow < need || below >= need {
				t.Errorf("n=%d p=%v: %d has %d below and %d at or below, want the smallest sample with >= %d at or below",
					n, p, got, below, atOrBelow, need)
			}
		}
	}
}

// TestTailNeedsTenSamplesBeyond pins the "at least ten samples beyond" rule.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n   int
		pct float64
	}{
		{50, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {250000, 99.9},
	} {
		pct, v := Tail(seq(c.n))
		if pct != c.pct {
			t.Errorf("n=%d: tail percentile %v, want %v", c.n, pct, c.pct)
		}
		if beyond := c.n - int(v); pct != 50 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond, pct)
		}
	}
}

// TestQuartilesMatchPython pins Quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		// python3 -c "import statistics; print(statistics.quantiles([...], n=4))"
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, [3]float64{10, 23, 38}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
	} {
		q1, med, q3 := Quartiles(c.v)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("Quartiles(%v) = %v, want %v", c.v, got, c.want)
				break
			}
		}
	}
	if s := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("Spread = %v, want 1", s)
	}
}

// TestUnitFollowsName: a duration is converted by the unit its name states,
// so nanoseconds cannot appear under a microsecond name, and the wrong
// constructor for a name is refused.
func TestUnitFollowsName(t *testing.T) {
	d := 170 * time.Microsecond
	for _, c := range []struct {
		m     Metric
		unit  string
		value float64
	}{
		{Dur("latency_p50_us", d), "us", 170},
		{Dur("latency_p50_ms", d), "ms", 0.17},
		{Dur("client.latency_p99_ms", d), "ms", 0.17},
		{Dur("setup_s", 1500*time.Millisecond), "s", 1.5},
		{Per("engine.query_ns", 30*time.Millisecond, 1_000_000), "ns", 30},
		{Per("server_cpu_us_per_op", 75*time.Second, 1_000_000), "us", 75},
		{Per("engine.query_batch_ns_per_key", 51200*time.Nanosecond, 512), "ns", 100},
		{Num("throughput_ops_s", 25000), "ops/s", 25000},
		{Num("server_rss_mb", 140.5), "MB", 140.5},
		{Num("trace.overhead_share", 0.02), "ratio", 0.02},
		{Num("wal.bytes_per_record", 93), "B", 93},
		{Num("core.fit_epochs", 52), "count", 52},
		{Num("traj.stays_per_kpoint", 68), "count", 68},
		{Num("served_mae_m", 42.1), "m", 42.1},
	} {
		if c.m.Unit != c.unit || math.Abs(c.m.Value-c.value) > 1e-9 {
			t.Errorf("%s = %v %s, want %v %s", c.m.Name, c.m.Value, c.m.Unit, c.value, c.unit)
		}
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("a duration name through Num", func() { Num("latency_p50_us", 170000) })
	mustPanic("a count name through Dur", func() { Dur("core.fit_epochs", d) })
	mustPanic("a rate through Dur", func() { Dur("throughput_ops_s", d) })
	mustPanic("a name without a unit", func() { Num("wal.append_ns_never", 1) })
}
