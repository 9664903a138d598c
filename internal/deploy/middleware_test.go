// Tests for the Instrument middleware itself: status recording when the
// handler never writes a header, Flush forwarding to streaming downloads,
// the deprecated-alias counter, and the request-id / traceparent contract.
package deploy_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dlinfma/internal/deploy"
	"dlinfma/internal/obs"
	"dlinfma/internal/obs/trace"
)

// families renders reg and parses it back.
func families(t *testing.T, reg *obs.Registry) map[string]*obs.Family {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return fams
}

// scrapeCounter returns the value of one sample of family matching the given
// labels in the process-wide registry (0 when absent).
func scrapeCounter(t *testing.T, family string, labels map[string]string) float64 {
	t.Helper()
	fam, ok := families(t, obs.Default)[family]
	if !ok {
		return 0
	}
sample:
	for _, s := range fam.Samples {
		for k, v := range labels {
			if s.Labels[k] != v {
				continue sample
			}
		}
		return s.Value
	}
	return 0
}

// TestStatusRecorderImplicit200 drives a handler that writes the body
// without ever calling WriteHeader; the route counter must record 200, not 0.
// The counters are process-wide, so the test reads their change across the
// request: a repeated run (go test -count=N) starts from the last one's.
func TestStatusRecorderImplicit200(t *testing.T) {
	const route = "/test/implicit-200"
	ok200 := map[string]string{"route": route, "method": "GET", "code": "200"}
	code0 := map[string]string{"route": route, "code": "0"}
	before200 := scrapeCounter(t, "dlinfma_http_requests_total", ok200)
	before0 := scrapeCounter(t, "dlinfma_http_requests_total", code0)
	h := deploy.Instrument(route, nil, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok")) // implicit 200
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/whatever", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("recorder code %d", rec.Code)
	}
	if got := scrapeCounter(t, "dlinfma_http_requests_total", ok200) - before200; got != 1 {
		t.Fatalf("implicit-200 counted %v times, want 1", got)
	}
	if zero := scrapeCounter(t, "dlinfma_http_requests_total", code0) - before0; zero != 0 {
		t.Fatalf("status 0 recorded %v times", zero)
	}
}

// flushRecorder counts Flush calls reaching the underlying writer.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

func TestStatusRecorderFlushForwards(t *testing.T) {
	h := deploy.Instrument("/test/flush", nil, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			t.Error("instrumented writer lost http.Flusher")
			return
		}
		_, _ = w.Write([]byte("chunk"))
		fl.Flush()
		fl.Flush()
	}))
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/snapshot", nil))
	if rec.flushes != 2 {
		t.Fatalf("forwarded %d flushes, want 2", rec.flushes)
	}
}

// TestRequestIDEcho checks the correlation-id contract: an incoming
// X-Request-ID is echoed verbatim, a missing one is minted, and error
// envelopes carry it too.
func TestRequestIDEcho(t *testing.T) {
	srv := httptest.NewServer(deploy.NewService(readyStub(), deploy.Options{}))
	defer srv.Close()
	c := srv.Client()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/locations/1", nil)
	req.Header.Set("X-Request-ID", "client-supplied-42")
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-supplied-42" {
		t.Fatalf("incoming request id not echoed: %q", got)
	}

	// No incoming id: one is minted (16 hex chars).
	resp, err = c.Get(srv.URL + "/v1/locations/1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); len(got) != 16 {
		t.Fatalf("minted request id %q, want 16 hex chars", got)
	}

	// Error envelope responses carry the id as well.
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/v1/locations/not-a-number", nil)
	req.Header.Set("X-Request-ID", "err-req-7")
	resp, err = c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "err-req-7" {
		t.Fatalf("error envelope lost request id: %q", got)
	}
}

// TestTraceparentRoundTrip checks the middleware continues an incoming
// traceparent and echoes the service's own span identity back.
func TestTraceparentRoundTrip(t *testing.T) {
	tracer := trace.NewTracer(trace.Options{SampleProb: 1, Store: trace.NewStore(8)})
	srv := httptest.NewServer(deploy.NewService(readyStub(), deploy.Options{Tracer: tracer}))
	defer srv.Close()

	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/locations/1", nil)
	req.Header.Set("traceparent", parent)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	echo := resp.Header.Get("Traceparent")
	sc, ok := trace.ParseTraceparent(echo)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", echo)
	}
	if sc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id not continued: %q", echo)
	}
	if !sc.Sampled {
		t.Fatal("sampled flag lost")
	}
	if strings.HasSuffix(echo, "-00f067aa0ba902b7-01") {
		t.Fatal("echo carries the remote span id, want the service's own root span")
	}
	// The trace must land in the store with the continued id. The root span
	// ends after the handler writes the body, so the client can observe the
	// response before the publish — poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for tracer.Store().Get(sc.TraceID) == nil {
		if time.Now().After(deadline) {
			t.Fatal("continued trace not in the store")
		}
		time.Sleep(time.Millisecond)
	}
}
