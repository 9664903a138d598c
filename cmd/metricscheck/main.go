// Command metricscheck scrapes a Prometheus text exposition from a URL (or
// stdin with -url "-"), validates that it parses and that every histogram in
// it is well shaped, and asserts a required set of metric families is
// present. CI boots a dlinfma server and runs it against /v1/metrics so a
// malformed exposition, a broken bucket sequence or a silently dropped family
// fails the build instead of the first real scrape in production. A required
// name may carry one label, name{key="value"}: a sample of the family must
// then carry it — how a labelled family, such as one series per log, is
// required series by series.
//
// Usage:
//
//	metricscheck -url http://localhost:8080/v1/metrics [-require name1,name2{key="value"}]
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"dlinfma/internal/obs"
)

// defaultRequired is the exposition contract: families every serving binary
// must expose once traffic has flowed, and the process's own health, which it
// exposes from the first scrape.
var defaultRequired = []string{
	"dlinfma_http_requests_total",
	"dlinfma_http_request_duration_seconds",
	"dlinfma_http_in_flight_requests",
	"dlinfma_engine_queries_total",
	"dlinfma_go_goroutines",
	"dlinfma_go_heap_live_bytes",
	"dlinfma_go_gc_cycles_total",
	"dlinfma_go_gc_pause_cpu_seconds_total",
	"dlinfma_go_mutex_wait_seconds_total",
	"dlinfma_build_info",
}

func main() {
	url := flag.String("url", "http://localhost:8080/v1/metrics", "exposition URL (\"-\" reads stdin)")
	require := flag.String("require", strings.Join(defaultRequired, ","),
		"comma-separated metric families that must be present (\"\" skips the check)")
	timeout := flag.Duration("timeout", 10*time.Second, "HTTP timeout")
	flag.Parse()

	if err := run(*url, *require, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "metricscheck:", err)
		os.Exit(1)
	}
}

func run(url, require string, timeout time.Duration) error {
	var body io.ReadCloser
	if url == "-" {
		body = os.Stdin
	} else {
		c := &http.Client{Timeout: timeout}
		resp, err := c.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			return fmt.Errorf("GET %s: Content-Type %q, want text/plain", url, ct)
		}
		body = resp.Body
	}
	fams, err := obs.ParseExposition(body)
	if err != nil {
		return fmt.Errorf("exposition does not parse: %w", err)
	}

	var missing []string
	if require != "" {
		for _, name := range strings.Split(require, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !present(fams, name) {
				missing = append(missing, name)
			}
		}
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	samples := 0
	for _, f := range fams {
		samples += len(f.Samples)
	}
	fmt.Printf("parsed %d families, %d samples\n", len(names), samples)
	for _, name := range names {
		fmt.Printf("  %-55s %s (%d samples)\n", name, fams[name].Type, len(fams[name].Samples))
	}
	if err := checkHistograms(fams); err != nil {
		return err
	}
	if len(missing) > 0 {
		return fmt.Errorf("required families missing: %s", strings.Join(missing, ", "))
	}
	return nil
}

// present reports whether a required name is in the exposition: a family
// name, or name{key="value"}, a family one of whose samples carries that
// label.
func present(fams map[string]*obs.Family, required string) bool {
	name, label, _ := strings.Cut(required, "{")
	f, ok := fams[name]
	if !ok || label == "" {
		return ok
	}
	key, value, _ := strings.Cut(strings.TrimSuffix(label, "}"), "=")
	value = strings.Trim(value, `"`)
	for _, s := range f.Samples {
		if v, ok := s.Labels[key]; ok && v == value {
			return true
		}
	}
	return false
}

// checkHistograms checks every histogram series (one per label set, le
// aside): its le edges ascend strictly, its cumulative counts never
// decrease, and its last edge is le="+Inf" with the same count as _count.
// The server's sparse exposition writes only the non-empty buckets, so the
// edges differ from series to series and scrape to scrape; these are the
// invariants that hold whatever they are.
func checkHistograms(fams map[string]*obs.Family) error {
	type series struct {
		le, cum  float64 // the last edge seen and its cumulative count
		count    float64
		hasCount bool
	}
	for name, f := range fams {
		if f.Type != "histogram" {
			continue
		}
		bySet := map[string]*series{}
		for _, s := range f.Samples {
			key := seriesLabels(s.Labels)
			sr := bySet[key]
			if sr == nil {
				sr = &series{le: math.Inf(-1)}
				bySet[key] = sr
			}
			switch s.Name {
			case name + "_bucket":
				le, err := strconv.ParseFloat(s.Labels["le"], 64)
				if err != nil || math.IsNaN(le) {
					return fmt.Errorf("histogram %s%s: bad le %q", name, key, s.Labels["le"])
				}
				if le <= sr.le {
					return fmt.Errorf("histogram %s%s: le edges do not ascend (%v then %v)", name, key, sr.le, le)
				}
				if s.Value < sr.cum {
					return fmt.Errorf("histogram %s%s: cumulative count falls from %v to %v at le=%v", name, key, sr.cum, s.Value, le)
				}
				sr.le, sr.cum = le, s.Value
			case name + "_count":
				sr.count, sr.hasCount = s.Value, true
			}
		}
		for key, sr := range bySet {
			if !math.IsInf(sr.le, 1) {
				return fmt.Errorf("histogram %s%s: no le=\"+Inf\" bucket", name, key)
			}
			if !sr.hasCount || sr.cum != sr.count {
				return fmt.Errorf("histogram %s%s: le=\"+Inf\" is %v but _count is %v", name, key, sr.cum, sr.count)
			}
		}
	}
	return nil
}

// seriesLabels renders a sample's labels other than le, sorted, as the key of
// the series it belongs to.
func seriesLabels(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return "{" + b.String() + "}"
}
