package deploy_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"dlinfma/internal/deploy"
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/obs"
)

// loopbackP50Allowance bounds how much longer a client on the same host waits
// at p50 than the server's own span says: the request and response crossing
// loopback, the server's header parse and the client's transport. Over 20 runs
// on two cores the largest gap was 66µs, and 576µs under the race detector.
const loopbackP50Allowance = 2 * time.Millisecond

// TestReconcileClientServerLatency serves the production server config on
// real loopback TCP, times every request from send to body fully read, and
// reconciles that with the server's dlinfma_http_request_duration_seconds.
// Each server span lies inside its client span and both sides bucket alike,
// so the server's quantiles can never exceed the client's.
func TestReconcileClientServerLatency(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := deploy.NewServer(ln.Addr().String(), deploy.NewService(readyStub(), deploy.Options{}))
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	// Two workers leave the server a processor of its own on two cores, and a
	// full batch makes its span outweigh the transport, so a server that
	// over-reports shows up on the batch route.
	const workers, perWorker, batchKeys = 2, 500, api.MaxBatchKeys
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	defer client.CloseIdleConnections()

	keys := make([]int64, batchKeys)
	for i := range keys {
		keys[i] = int64(i % 3)
	}
	batch, err := json.Marshal(api.BatchLocationsRequest{Addrs: keys})
	if err != nil {
		t.Fatal(err)
	}
	routes := []struct {
		route string
		send  func(i int) (*http.Response, error)
	}{
		{"/v1/locations/{key}", func(i int) (*http.Response, error) { // key 0 is a 404
			return client.Get(fmt.Sprintf("%s/v1/locations/%d", base, i%3))
		}},
		{"/v1/locations:batch", func(int) (*http.Response, error) {
			return client.Post(base+"/v1/locations:batch", "application/json", bytes.NewReader(batch))
		}},
	}
	reg := obs.NewRegistry()
	clientHist := reg.HDRHistogramVec("client_seconds", "client-observed latency", "route")

	before := scrape(t, client, base)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for _, rt := range routes {
					start := time.Now()
					resp, err := rt.send(i)
					if err != nil {
						errs <- err
						return
					}
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					clientHist.With(rt.route).Record(time.Since(start))
					if err != nil || resp.StatusCode >= 500 {
						errs <- fmt.Errorf("%s: status %d, body read: %v", rt.route, resp.StatusCode, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	after := scrape(t, client, base)
	clientFams := families(t, reg)

	const family = "dlinfma_http_request_duration_seconds"
	for _, rt := range routes {
		sAfter, nAfter := routeSeries(after[family], rt.route)
		sBefore, nBefore := routeSeries(before[family], rt.route)
		server := since(sAfter, sBefore)
		cl, n := routeSeries(clientFams["client_seconds"], rt.route)
		if want := float64(workers * perWorker); n != want || nAfter-nBefore != want {
			t.Fatalf("%s: client counted %v and the server %v requests, want %v", rt.route, n, nAfter-nBefore, want)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 1} {
			if s, c := quantile(server, q), quantile(cl, q); s > c {
				t.Errorf("%s: server q%v %vs exceeds the client's %vs", rt.route, q, s, c)
			}
		}
		s50, c50 := quantile(server, 0.5), quantile(cl, 0.5)
		gap := time.Duration((c50 - s50) * float64(time.Second)).Round(time.Microsecond)
		t.Logf("%s: p50 server %vs client %vs, gap %v", rt.route, s50, c50, gap)
		if gap > loopbackP50Allowance {
			t.Errorf("%s: client p50 exceeds the server's by %v, over the %v loopback allowance", rt.route, gap, loopbackP50Allowance)
		}
	}
}

// scrape parses one GET /v1/metrics.
func scrape(t *testing.T, c *http.Client, base string) map[string]*obs.Family {
	t.Helper()
	resp, err := c.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return fams
}

// cumBucket is one finite cumulative `le` edge of a histogram series.
type cumBucket struct{ le, count float64 }

// routeSeries returns the finite cumulative buckets of fam's series for route,
// in ascending `le` order, and the series' _count.
func routeSeries(fam *obs.Family, route string) (bs []cumBucket, count float64) {
	if fam == nil {
		return nil, 0
	}
	for _, s := range fam.Samples {
		if s.Labels["route"] != route {
			continue
		}
		switch {
		case s.Name == fam.Name+"_count":
			count = s.Value
		case s.Name == fam.Name+"_bucket" && s.Labels["le"] != "+Inf":
			le, _ := strconv.ParseFloat(s.Labels["le"], 64)
			bs = append(bs, cumBucket{le, s.Value})
		}
	}
	return bs, count
}

// since is the cumulative series of what after recorded beyond before, on
// after's edges. A sparse series omits its empty buckets, so before's count
// at an edge it lacks is the count at its last edge below it.
func since(after, before []cumBucket) []cumBucket {
	out := make([]cumBucket, len(after))
	var j int
	var prev float64
	for i, b := range after {
		for ; j < len(before) && before[j].le <= b.le; j++ {
			prev = before[j].count
		}
		out[i] = cumBucket{b.le, b.count - prev}
	}
	return out
}

// quantile is the `le` edge of the bucket holding the rank-q observation of
// a non-empty cumulative series; both sides of the reconciliation are read
// through it.
func quantile(bs []cumBucket, q float64) float64 {
	rank := math.Floor(q*(bs[len(bs)-1].count-1)) + 1
	for _, b := range bs {
		if b.count >= rank {
			return b.le
		}
	}
	return math.Inf(1)
}
