// Command metricscheck scrapes a Prometheus text exposition from a URL (or
// stdin with -url "-"), validates that it parses, and asserts a required set
// of metric families is present. CI boots a dlinfma server and runs it
// against /v1/metrics so a malformed exposition or a silently dropped family
// fails the build instead of the first real scrape in production.
//
// Usage:
//
//	metricscheck -url http://localhost:8080/v1/metrics [-require name1,name2]
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
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
			if _, ok := fams[name]; !ok {
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
	if len(missing) > 0 {
		return fmt.Errorf("required families missing: %s", strings.Join(missing, ", "))
	}
	return nil
}
