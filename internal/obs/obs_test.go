package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterGaugeRace hammers one counter, one gauge, and two vec children
// from many goroutines; run under -race this proves the hot paths are safe,
// and the final values prove no increment is lost.
func TestCounterGaugeRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "test counter")
	g := r.Gauge("g", "test gauge")
	cv := r.CounterVec("cv_total", "test counter vec", "k")
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				cv.With("a").Inc()
				cv.With("b").Add(2)
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*per)
	}
	if got := cv.With("a").Value(); got != workers*per {
		t.Errorf("cv{a} = %d, want %d", got, workers*per)
	}
	if got := cv.With("b").Value(); got != 2*workers*per {
		t.Errorf("cv{b} = %d, want %d", got, 2*workers*per)
	}
}

// TestHistogramConcurrent proves Observe under concurrency keeps count, sum,
// and cumulative bucket invariants.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.HDRHistogram("h_seconds", "test histogram")
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.05)
				h.Observe(2.0)
			}
		}()
	}
	wg.Wait()
	if h.total.Load() != 2*workers*per {
		t.Errorf("count = %d, want %d", h.total.Load(), 2*workers*per)
	}
	want := float64(workers*per)*0.05 + float64(workers*per)*2.0
	if math.Abs(h.Sum()-want) > 1e-6 {
		t.Errorf("sum = %v, want %v", h.Sum(), want)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// 0.05 s and 2 s land in the buckets ending at 50175 µs and 2031615 µs.
	for _, line := range []string{
		`h_seconds_bucket{le="0.050175"} 4000`,
		`h_seconds_bucket{le="2.031615"} 8000`,
		`h_seconds_bucket{le="+Inf"} 8000`,
		`h_seconds_sum 8200`,
		`h_seconds_count 8000`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

// TestExpositionGolden pins the exact exposition of one metric of each kind.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests served.")
	c.Add(3)
	g := r.Gauge("in_flight", "In-flight requests.")
	g.Set(2.5)
	hv := r.HDRHistogramVec("lat_seconds", "Latency.", "route")
	hv.With("/v1/x").Observe(0.25)
	cv := r.CounterVec("hits_total", "Hits.", "shard", "kind")
	cv.With("0", `quo"te`).Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP requests_total Requests served.
# TYPE requests_total counter
requests_total 3
# HELP in_flight In-flight requests.
# TYPE in_flight gauge
in_flight 2.5
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{route="/v1/x",le="0.253951"} 1
lat_seconds_bucket{route="/v1/x",le="+Inf"} 1
lat_seconds_sum{route="/v1/x"} 0.25
lat_seconds_count{route="/v1/x"} 1
# HELP hits_total Hits.
# TYPE hits_total counter
hits_total{shard="0",kind="quo\"te"} 1
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n got: %q\nwant: %q", sb.String(), want)
	}
	// And the exposition must round-trip through our own parser.
	fams, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("self-parse: %v", err)
	}
	if fams["lat_seconds"].Type != "histogram" || len(fams["lat_seconds"].Samples) != 4 {
		t.Errorf("parsed histogram family %+v", fams["lat_seconds"])
	}
	if fams["hits_total"].Samples[0].Labels["kind"] != `quo"te` {
		t.Errorf("label round-trip %+v", fams["hits_total"].Samples[0])
	}
}

func TestVecChildIdentity(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("x_total", "", "a")
	if cv.With("1") != cv.With("1") {
		t.Error("With returned distinct children for equal labels")
	}
	defer func() {
		if recover() == nil {
			t.Error("label arity mismatch did not panic")
		}
	}()
	cv.With("1", "2")
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Gauge("dup_total", "")
}

func TestParseExpositionRejects(t *testing.T) {
	bad := []string{
		"name 1.2.3",                  // malformed value
		"1name 7",                     // bad metric name
		"# TYPE x wat\nx 1",           // unknown type
		`m{l="unterminated} 1`,        // unterminated label
		"x 1\n# TYPE x counter",       // TYPE after samples
		"# TYPE h histogram\nh 3",     // bare histogram sample
		"# TYPE h histogram\nh_sum 3", // histogram family sample but no bucket/count is fine...
		"m{=\"v\"} 1",                 // empty label name
	}
	for i, in := range bad {
		if i == 6 {
			// h_sum under a declared histogram is legal; skip the negative
			// expectation for it and assert it parses.
			if _, err := ParseExposition(strings.NewReader(in)); err != nil {
				t.Errorf("case %d (%q) should parse: %v", i, in, err)
			}
			continue
		}
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("case %d (%q) parsed without error", i, in)
		}
	}
	good := "# HELP a Help text.\n# TYPE a counter\na{x=\"y\"} 5 1700000000\nb_no_type 1\n# TYPE b_no_type counter"
	if _, err := ParseExposition(strings.NewReader(good)); err == nil {
		t.Error("TYPE after samples should be rejected")
	}
}

// TestParseExpositionBracesInLabelValue: route patterns like
// "/v1/locations/{key}" are legal label values; the label-set scanner must
// not mistake their braces for the set terminator.
func TestParseExpositionBracesInLabelValue(t *testing.T) {
	in := "# TYPE m counter\nm{route=\"/v1/locations/{key}\",code=\"200\"} 3\n"
	fams, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatalf("braced label value rejected: %v", err)
	}
	s := fams["m"].Samples[0]
	if s.Labels["route"] != "/v1/locations/{key}" || s.Labels["code"] != "200" || s.Value != 3 {
		t.Fatalf("parsed sample %+v", s)
	}
}

func fixedClock() func() time.Time {
	return func() time.Time { return time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC) }
}

func TestLoggerLogfmt(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, LevelInfo, FormatLogfmt)
	l.now = fixedClock()
	l.Debug("dropped")
	l.With("component", "engine").Info("reinfer done", "dur", 1.5, "inferred", 42, "note", "has space")
	want := `ts=2026-08-05T12:00:00Z level=info msg="reinfer done" component=engine dur=1.5 inferred=42 note="has space"` + "\n"
	if sb.String() != want {
		t.Errorf("logfmt line:\n got %q\nwant %q", sb.String(), want)
	}
}

func TestLoggerJSON(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, LevelDebug, FormatJSON)
	l.now = fixedClock()
	l.Warn("boom", "err", strings.NewReader, "n", int64(7), "ok", true)
	got := sb.String()
	for _, frag := range []string{`"level":"warn"`, `"msg":"boom"`, `"n":7`, `"ok":true`} {
		if !strings.Contains(got, frag) {
			t.Errorf("json line missing %s: %s", frag, got)
		}
	}
}

func TestLoggerNilAndLevels(t *testing.T) {
	var l *Logger
	l.Info("must not panic", "k", "v")
	if l.With("a", 1) != nil {
		t.Error("With on nil logger should return nil")
	}
	if l.Enabled(LevelError) {
		t.Error("nil logger enabled")
	}
	var sb strings.Builder
	real := NewLogger(&sb, LevelWarn, FormatLogfmt)
	real.Info("dropped")
	real.Error("kept")
	if n := strings.Count(sb.String(), "\n"); n != 1 {
		t.Errorf("level filter wrote %d lines: %q", n, sb.String())
	}
	if !real.With("k", "v").Enabled(LevelWarn) || real.With("k", "v").Enabled(LevelInfo) {
		t.Error("With did not carry the level")
	}
	if _, err := ParseLevel("nope"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
	if lv, err := ParseLevel("WARN"); err != nil || lv != LevelWarn {
		t.Errorf("ParseLevel(WARN) = %v, %v", lv, err)
	}
	if f, err := ParseFormat("json"); err != nil || f != FormatJSON {
		t.Errorf("ParseFormat(json) = %v, %v", f, err)
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("ParseFormat accepted garbage")
	}
}

func TestSpan(t *testing.T) {
	r := NewRegistry()
	h := r.HDRHistogram("stage_seconds", "")
	sp := StartSpan(h)
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 || h.total.Load() != 1 || h.Sum() <= 0 {
		t.Errorf("span end: d=%v count=%d sum=%v", d, h.total.Load(), h.Sum())
	}
	if StartSpan(nil).End() < 0 {
		t.Error("nil-histogram span")
	}
}
