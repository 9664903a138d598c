package main

import (
	"strings"
	"testing"
	"time"

	"dlinfma/internal/obs"
)

func parse(t *testing.T, doc string) map[string]*obs.Family {
	t.Helper()
	fams, err := obs.ParseExposition(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("document does not parse: %v\n%s", err, doc)
	}
	return fams
}

// TestCheckHistogramsAcceptsServerExposition: what the registry writes —
// sparse HDR edges that differ per label set, an empty series, a zero value —
// passes the shape check.
func TestCheckHistogramsAcceptsServerExposition(t *testing.T) {
	reg := obs.NewRegistry()
	lat := reg.HDRHistogramVec("lat_seconds", "Latency.", "route")
	for i := 0; i < 100; i++ {
		lat.With("/a").Record(time.Duration(i*i) * time.Microsecond)
		lat.With("/b").Observe(float64(i) / 7)
	}
	lat.With("/empty")
	reg.HDRHistogram("stays", "").Observe(0)
	reg.Counter("c_total", "").Inc()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if err := checkHistograms(parse(t, sb.String())); err != nil {
		t.Fatalf("server exposition rejected: %v\n%s", err, sb.String())
	}
}

func TestCheckHistogramsRejectsBrokenSeries(t *testing.T) {
	const head = "# TYPE h histogram\n"
	for _, tc := range []struct{ name, body, want string }{
		{"edges descend", `h_bucket{le="2"} 1` + "\n" + `h_bucket{le="1"} 1` + "\n" + `h_bucket{le="+Inf"} 1` + "\nh_count 1\n", "do not ascend"},
		{"repeated edge", `h_bucket{le="1"} 1` + "\n" + `h_bucket{le="1"} 1` + "\n" + `h_bucket{le="+Inf"} 1` + "\nh_count 1\n", "do not ascend"},
		{"count falls", `h_bucket{le="1"} 3` + "\n" + `h_bucket{le="2"} 2` + "\n" + `h_bucket{le="+Inf"} 3` + "\nh_count 3\n", "falls from 3 to 2"},
		{"no +Inf", `h_bucket{le="1"} 1` + "\nh_count 1\n", `no le="+Inf"`},
		{"+Inf vs _count", `h_bucket{le="1"} 1` + "\n" + `h_bucket{le="+Inf"} 2` + "\nh_count 3\n", "_count is 3"},
		{"no _count", `h_bucket{le="+Inf"} 2` + "\n", "_count is 0"},
		{"bad le", `h_bucket{le="x"} 2` + "\n", `bad le "x"`},
		{"one label set broken", `h_bucket{k="a",le="+Inf"} 1` + "\n" + `h_count{k="a"} 1` + "\n" + `h_bucket{k="b",le="+Inf"} 1` + "\n" + `h_count{k="b"} 2` + "\n", `h{k="b"}`},
	} {
		err := checkHistograms(parse(t, head+tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestPresentMatchesOneLabel: a required family with a label is present only
// when a sample of the family carries that label.
func TestPresentMatchesOneLabel(t *testing.T) {
	fams := parse(t, "# TYPE g gauge\n"+`g{log="fix"} 3`+"\n# TYPE c counter\nc 1\n")
	for required, want := range map[string]bool{
		"g":                true,
		`g{log="fix"}`:     true,
		`g{log="window"}`:  false,
		`g{shard="0"}`:     false,
		"c":                true,
		`c{log="fix"}`:     false,
		"missing":          false,
		`missing{log="x"}`: false,
	} {
		if got := present(fams, required); got != want {
			t.Errorf("present(%s) = %v, want %v", required, got, want)
		}
	}
}
