// Tests for the versioned /v1 surface against a stub engine: route shapes,
// the uniform error envelope, legacy-alias equivalence, the health matrix,
// and the metrics exposition. The real-engine lifecycle is covered by
// service_test.go; the stub makes the HTTP contract testable without
// training anything.
package deploy_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dlinfma/internal/deploy"
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/obs"
)

// stubEngine implements deploy.Engine with directly settable state.
type stubEngine struct {
	store    *deploy.Store
	status   api.EngineStatus
	job      *api.JobStatus
	ingested [][]model.Trip
}

func (s *stubEngine) QueryCtx(_ context.Context, addr model.AddressID) (geo.Point, deploy.Source) {
	if s.store == nil {
		return geo.Point{}, deploy.SourceNone
	}
	return s.store.Query(addr)
}

func (s *stubEngine) QueryBatch(ctx context.Context, addrs []model.AddressID, out []deploy.BatchAnswer) ([]deploy.BatchAnswer, error) {
	out = deploy.GrowAnswers(out, len(addrs))
	for i, addr := range addrs {
		out[i].Loc, out[i].Src = s.QueryCtx(ctx, addr)
	}
	return out, ctx.Err()
}

// SwapReports answers none: the stub keeps no churn ring.
func (s *stubEngine) SwapReports(int) []api.SwapReport { return nil }

func (s *stubEngine) Ingest(_ context.Context, trips []model.Trip, _ []model.AddressInfo, _ map[model.AddressID]geo.Point) error {
	s.ingested = append(s.ingested, trips)
	return nil
}

func (s *stubEngine) StartReinfer() (api.JobStatus, error) {
	if s.job != nil && s.job.State == api.JobRunning {
		return *s.job, deploy.ErrReinferRunning
	}
	s.job = &api.JobStatus{ID: 1, State: api.JobRunning}
	return *s.job, nil
}

func (s *stubEngine) ReinferStatus() (api.JobStatus, bool) {
	if s.job == nil {
		return api.JobStatus{}, false
	}
	return *s.job, true
}

func (s *stubEngine) Status() api.EngineStatus { return s.status }

func (s *stubEngine) WriteSnapshot(w io.Writer) error {
	_, err := io.WriteString(w, `{"version":1,"locations":{}}`)
	return err
}

// readyStub returns a stub serving addresses 1 and 2.
func readyStub() *stubEngine {
	st := deploy.NewStore()
	st.Put(1, geo.Point{X: 10, Y: 20})
	st.Put(2, geo.Point{X: 30, Y: 40})
	return &stubEngine{store: st, status: api.EngineStatus{Ready: true, Inferred: 2}}
}

func TestV1LocationAndBatch(t *testing.T) {
	srv := httptest.NewServer(deploy.NewService(readyStub(), deploy.Options{}))
	defer srv.Close()
	c := srv.Client()

	var loc api.Location
	getJSON(t, c, srv.URL+"/v1/locations/1", http.StatusOK, &loc)
	if loc.Addr != 1 || loc.X != 10 || loc.Y != 20 || loc.Source != "address" {
		t.Fatalf("v1 location %+v", loc)
	}

	// Batch with a partial failure: two hits, one miss, still 200.
	resp := postJSON(t, c, srv.URL+"/v1/locations:batch", api.BatchLocationsRequest{Addrs: []int64{1, 404, 2}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var br api.BatchLocationsResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if br.Found != 2 || br.Missing != 1 || len(br.Results) != 3 {
		t.Fatalf("batch counts %+v", br)
	}
	if br.Results[0].Location == nil || br.Results[0].Location.X != 10 {
		t.Fatalf("batch result 0 %+v", br.Results[0])
	}
	if br.Results[1].Error == nil || br.Results[1].Error.Code != api.CodeNotFound {
		t.Fatalf("batch result 1 %+v", br.Results[1])
	}
	if br.Results[2].Location == nil || br.Results[2].Location.Addr != 2 {
		t.Fatalf("batch result 2 %+v", br.Results[2])
	}

	// Validation errors: empty and oversized key lists.
	resp = postJSON(t, c, srv.URL+"/v1/locations:batch", api.BatchLocationsRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d", resp.StatusCode)
	}
	resp.Body.Close()
	big := make([]int64, api.MaxBatchKeys+1)
	resp = postJSON(t, c, srv.URL+"/v1/locations:batch", api.BatchLocationsRequest{Addrs: big})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// batchStub is a stubEngine that counts its QueryBatch and Status calls.
type batchStub struct {
	*stubEngine
	batchCalls, statusCalls int
}

func (s *batchStub) QueryBatch(ctx context.Context, addrs []model.AddressID, out []deploy.BatchAnswer) ([]deploy.BatchAnswer, error) {
	s.batchCalls++
	return s.stubEngine.QueryBatch(ctx, addrs, out)
}

func (s *batchStub) Status() api.EngineStatus {
	s.statusCalls++
	return s.stubEngine.Status()
}

// TestV1BatchInputOrder hammers the batch endpoint with shuffled key mixes
// of shrinking sizes against one server, so the pooled request/response
// buffers are recycled across calls: any stale entry from a previous
// (larger) batch would surface as a wrong Addr, count, or result.
func TestV1BatchInputOrder(t *testing.T) {
	srv := httptest.NewServer(deploy.NewService(readyStub(), deploy.Options{}))
	defer srv.Close()
	c := srv.Client()

	for round, size := range []int{64, 31, 7, 64, 2} {
		addrs := make([]int64, size)
		wantFound := 0
		for i := range addrs {
			switch i % 3 {
			case 0:
				addrs[i] = 1
				wantFound++
			case 1:
				addrs[i] = int64(1000 + i) // unknown
			default:
				addrs[i] = 2
				wantFound++
			}
		}
		resp := postJSON(t, c, srv.URL+"/v1/locations:batch", api.BatchLocationsRequest{Addrs: addrs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d status %d", round, resp.StatusCode)
		}
		var br api.BatchLocationsResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(br.Results) != size || br.Found != wantFound || br.Missing != size-wantFound {
			t.Fatalf("round %d: %d results, found %d missing %d (want %d/%d/%d)",
				round, len(br.Results), br.Found, br.Missing, size, wantFound, size-wantFound)
		}
		for i, res := range br.Results {
			if res.Addr != addrs[i] {
				t.Fatalf("round %d result %d answers addr %d, want %d (input order broken)",
					round, i, res.Addr, addrs[i])
			}
			if addrs[i] >= 1000 {
				if res.Error == nil || res.Error.Code != api.CodeNotFound || res.Location != nil {
					t.Fatalf("round %d result %d (unknown key) = %+v", round, i, res)
				}
			} else if res.Location == nil || res.Location.Addr != addrs[i] || res.Error != nil {
				t.Fatalf("round %d result %d (known key) = %+v", round, i, res)
			}
		}
	}
}

// postBatch posts a raw batch body and returns the status and the body
// answered; unlike postJSON it sends exactly the bytes given, so a test
// chooses between the canonical form and one left to encoding/json.
func postBatch(srv *httptest.Server, body string) (int, string, error) {
	resp, err := srv.Client().Post(srv.URL+"/v1/locations:batch", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(got), err
}

// TestV1BatchConcurrent posts distinct batches from several goroutines at
// once: every response must be the bytes its own keys produce, so a pooled
// buffer shared between two in-flight requests shows as a foreign key (and
// under -race as a data race).
func TestV1BatchConcurrent(t *testing.T) {
	srv := httptest.NewServer(deploy.NewService(readyStub(), deploy.Options{}))
	defer srv.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				miss := 1000*(g+1) + round
				body := fmt.Sprintf(`{"addrs":[%d,1,2]}`, miss)
				want := fmt.Sprintf(`{"results":[{"addr":%d,"error":{"code":"not_found","message":"unknown address"}},`+
					`{"addr":1,"location":{"addr":1,"x":10,"y":20,"source":"address"}},`+
					`{"addr":2,"location":{"addr":2,"x":30,"y":40,"source":"address"}}],"found":2,"missing":1}`+"\n", miss)
				if _, got, err := postBatch(srv, body); err != nil || got != want {
					t.Errorf("goroutine %d round %d: %v\n got  %s\n want %s", g, round, err, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestV1BatchUsesNativeBulkPath pins that the endpoint answers a whole batch
// from one call of the engine's bulk path, in input order.
func TestV1BatchUsesNativeBulkPath(t *testing.T) {
	stub := &batchStub{stubEngine: readyStub()}
	srv := httptest.NewServer(deploy.NewService(stub, deploy.Options{}))
	defer srv.Close()

	resp := postJSON(t, srv.Client(), srv.URL+"/v1/locations:batch", api.BatchLocationsRequest{Addrs: []int64{2, 404, 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var br api.BatchLocationsResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stub.batchCalls != 1 {
		t.Fatalf("QueryBatch called %d times, want 1", stub.batchCalls)
	}
	if br.Found != 2 || br.Missing != 1 ||
		br.Results[0].Location == nil || br.Results[0].Location.X != 30 ||
		br.Results[1].Error == nil || br.Results[2].Location == nil {
		t.Fatalf("bulk-path contract drift: %+v", br)
	}
}

// TestV1BatchAsksReadinessOnlyOnAllMiss: a batch with a hit is answered
// without asking the engine for its status — on a cluster frontend that is a
// healthz RPC per shard — and a batch that found nothing asks once, to tell a
// cold engine's 503 from a warm engine's misses.
func TestV1BatchAsksReadinessOnlyOnAllMiss(t *testing.T) {
	stub := &batchStub{stubEngine: readyStub()}
	srv := httptest.NewServer(deploy.NewService(stub, deploy.Options{}))
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp := postJSON(t, srv.Client(), srv.URL+"/v1/locations:batch", api.BatchLocationsRequest{Addrs: []int64{1, 404}})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm batch status %d", resp.StatusCode)
		}
	}
	if stub.statusCalls != 0 {
		t.Fatalf("3 batches with hits asked Status %d times, want 0", stub.statusCalls)
	}
	resp := postJSON(t, srv.Client(), srv.URL+"/v1/locations:batch", api.BatchLocationsRequest{Addrs: []int64{404, 405}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || stub.statusCalls != 1 {
		t.Fatalf("all-miss batch on a warm engine: status %d after %d Status calls, want 200 after 1",
			resp.StatusCode, stub.statusCalls)
	}
}

func TestV1BatchColdEngine(t *testing.T) {
	srv := httptest.NewServer(deploy.NewService(&stubEngine{}, deploy.Options{}))
	defer srv.Close()
	resp := postJSON(t, srv.Client(), srv.URL+"/v1/locations:batch", api.BatchLocationsRequest{Addrs: []int64{1}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold batch status %d, want 503", resp.StatusCode)
	}
	var eb api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == nil || eb.Error.Code != api.CodeEngineNotReady {
		t.Fatalf("cold batch envelope %v %+v", err, eb)
	}
}

func TestV1IngestAndReinfer(t *testing.T) {
	stub := readyStub()
	srv := httptest.NewServer(deploy.NewService(stub, deploy.Options{}))
	defer srv.Close()
	c := srv.Client()

	resp := postJSON(t, c, srv.URL+"/v1/ingest", api.IngestRequest{Trips: []model.Trip{{Courier: 7}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v1 ingest status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if len(stub.ingested) != 1 || len(stub.ingested[0]) != 1 {
		t.Fatalf("ingest recorded %+v", stub.ingested)
	}

	resp = postJSON(t, c, srv.URL+"/v1/reinfer", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("v1 reinfer status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Duplicate start conflicts with the running job in the details.
	resp = postJSON(t, c, srv.URL+"/v1/reinfer", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate v1 reinfer status %d", resp.StatusCode)
	}
	var eb api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == nil || eb.Error.Code != api.CodeReinferInFlight {
		t.Fatalf("conflict envelope %v %+v", err, eb)
	}
	resp.Body.Close()

	var job api.JobStatus
	getJSON(t, c, srv.URL+"/v1/reinfer", http.StatusOK, &job)
	if job.ID != 1 || job.State != api.JobRunning {
		t.Fatalf("v1 reinfer poll %+v", job)
	}

	r2, err := c.Get(srv.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("v1 snapshot status %d", r2.StatusCode)
	}
	body, _ := io.ReadAll(r2.Body)
	if !bytes.Contains(body, []byte(`"version":1`)) {
		t.Fatalf("v1 snapshot body %q", body)
	}
}

// TestHealthzAliasEquivalence proves /healthz is a thin probe alias of the
// typed GET /v1/healthz: identical status and body.
func TestHealthzAliasEquivalence(t *testing.T) {
	srv := httptest.NewServer(deploy.NewService(readyStub(), deploy.Options{}))
	defer srv.Close()
	c := srv.Client()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := c.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	v1Code, v1Body := get("/v1/healthz")
	bareCode, bareBody := get("/healthz")
	if v1Code != http.StatusOK || v1Code != bareCode || v1Body != bareBody {
		t.Fatalf("healthz alias drift: v1 %d %q vs bare %d %q", v1Code, v1Body, bareCode, bareBody)
	}
	var st api.EngineStatus
	if err := json.Unmarshal([]byte(v1Body), &st); err != nil {
		t.Fatalf("/v1/healthz body does not decode as EngineStatus: %v", err)
	}
	if !st.Ready || st.Inferred != 2 {
		t.Fatalf("typed healthz %+v", st)
	}
}

// TestErrorEnvelopeGoldens pins the exact wire bytes of representative error
// responses; encoding/json sorts map keys, so the envelope is deterministic.
func TestErrorEnvelopeGoldens(t *testing.T) {
	srv := httptest.NewServer(deploy.NewService(readyStub(), deploy.Options{}))
	defer srv.Close()
	c := srv.Client()

	cases := []struct {
		name, method, path, body, want string
	}{
		{
			// A 32-bit wrap would answer address 1 under this key.
			name: "batch key out of range", method: http.MethodPost, path: "/v1/locations:batch",
			body: `{"addrs":[1,4294967297]}`,
			want: `{"error":{"code":"invalid_argument","message":"address key out of range","details":{"index":1,"key":4294967297}}}`,
		},
		{
			name: "bad key", method: http.MethodGet, path: "/v1/locations/abc",
			want: `{"error":{"code":"invalid_argument","message":"address key must be a decimal integer","details":{"key":"abc"}}}`,
		},
		{
			name: "not found", method: http.MethodGet, path: "/v1/locations/424242",
			want: `{"error":{"code":"not_found","message":"unknown address","details":{"addr":424242}}}`,
		},
		{
			name: "method not allowed", method: http.MethodDelete, path: "/v1/snapshot",
			want: `{"error":{"code":"method_not_allowed","message":"method DELETE not allowed","details":{"allowed":["GET"]}}}`,
		},
		{
			name: "unmatched route", method: http.MethodGet, path: "/nope",
			want: `{"error":{"code":"not_found","message":"no such route","details":{"path":"/nope"}}}`,
		},
		{
			// The pre-/v1 paths are ordinary unmatched routes now.
			name: "retired route", method: http.MethodGet, path: "/location?addr=1",
			want: `{"error":{"code":"not_found","message":"no such route","details":{"path":"/location"}}}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := c.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if got := strings.TrimSpace(string(body)); got != tc.want {
				t.Errorf("%s %s:\n got  %s\n want %s", tc.method, tc.path, got, tc.want)
			}
		})
	}
}

// TestV1BatchKeyRange: address ids are 32-bit, and a batch key outside them
// fails the whole batch with a 400 — on the canonical body the scanner
// decodes and on one encoding/json decodes (the leading space) alike. The
// unchecked conversion used to answer address 1 for 1<<32+1.
func TestV1BatchKeyRange(t *testing.T) {
	srv := httptest.NewServer(deploy.NewService(readyStub(), deploy.Options{}))
	defer srv.Close()
	for _, tc := range []struct {
		key int64
		ok  bool
	}{
		{math.MaxInt32, true}, {math.MinInt32, true},
		{math.MaxInt32 + 1, false}, {math.MinInt32 - 1, false}, {1<<32 + 1, false},
	} {
		for _, lead := range []string{"", " "} {
			body := fmt.Sprintf(`%s{"addrs":[2,%d]}`, lead, tc.key)
			code, got, err := postBatch(srv, body)
			if err != nil {
				t.Fatal(err)
			}
			wantCode := http.StatusOK
			want := fmt.Sprintf(`{"results":[{"addr":2,"location":{"addr":2,"x":30,"y":40,"source":"address"}},{"addr":%d,"error":{"code":"not_found","message":"unknown address"}}],"found":1,"missing":1}`, tc.key)
			if !tc.ok {
				wantCode = http.StatusBadRequest
				want = fmt.Sprintf(`{"error":{"code":"invalid_argument","message":"address key out of range","details":{"index":1,"key":%d}}}`, tc.key)
			}
			if code != wantCode || strings.TrimSpace(got) != want {
				t.Errorf("body %q: status %d\n got  %s\n want %s", body, code, got, want)
			}
		}
	}
}

// TestV1BatchBodyLimit drives both sides of the 1 MiB body limit with a valid
// one-key request padded inside: at the limit it is answered, one byte over
// it is a 413 that says so — not the "unexpected end of JSON input" a
// silently truncated read used to produce.
func TestV1BatchBodyLimit(t *testing.T) {
	const limit = 1 << 20
	srv := httptest.NewServer(deploy.NewService(readyStub(), deploy.Options{}))
	defer srv.Close()
	for _, tc := range []struct {
		size, code int
		want       string
	}{
		{limit, http.StatusOK, `{"results":[{"addr":1,"location":{"addr":1,"x":10,"y":20,"source":"address"}}],"found":1,"missing":0}`},
		{limit + 1, http.StatusRequestEntityTooLarge, `{"error":{"code":"invalid_argument","message":"batch body exceeds 1048576 bytes","details":{"max_bytes":1048576}}}`},
	} {
		const head, tail = `{"addrs":[1`, `]}`
		body := head + strings.Repeat(" ", tc.size-len(head)-len(tail)) + tail
		code, got, err := postBatch(srv, body)
		if err != nil {
			t.Fatal(err)
		}
		if code != tc.code || strings.TrimSpace(got) != tc.want {
			t.Errorf("%d-byte body: status %d, want %d\n got  %s\n want %s", tc.size, code, tc.code, got, tc.want)
		}
	}
}

// TestIngestTruthKeysAreStrict: a truth key must be one whole decimal int32.
// fmt.Sscan used to stop at the first non-digit and report success, so
// "12abc" was ingested as ground truth for address 12.
func TestIngestTruthKeysAreStrict(t *testing.T) {
	srv := httptest.NewServer(deploy.NewService(readyStub(), deploy.Options{}))
	defer srv.Close()
	for _, tc := range []struct {
		key string
		ok  bool
	}{
		{"7", true}, {"-3", true},
		{"12abc", false}, {"12 7", false}, {" 5", false}, {"0x10", false}, {"2147483648", false},
	} {
		resp := postJSON(t, srv.Client(), srv.URL+"/v1/ingest", api.IngestRequest{Truth: map[string][2]float64{tc.key: {1, 2}}})
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if tc.ok {
			if resp.StatusCode != http.StatusOK {
				t.Errorf("truth key %q: status %d, body %s", tc.key, resp.StatusCode, body)
			}
			continue
		}
		want := fmt.Sprintf(`{"error":{"code":"invalid_argument","message":"truth keys must be decimal address ids","details":{"key":%q}}}`, tc.key)
		if got := strings.TrimSpace(string(body)); resp.StatusCode != http.StatusBadRequest || got != want {
			t.Errorf("truth key %q: status %d\n got  %s\n want %s", tc.key, resp.StatusCode, got, want)
		}
	}
}

// TestHealthzMatrix covers the readiness x failure matrix directly on the
// status the engine reports.
func TestHealthzMatrix(t *testing.T) {
	cases := []struct {
		name   string
		status api.EngineStatus
		want   int
	}{
		{"cold", api.EngineStatus{}, http.StatusServiceUnavailable},
		{"ready", api.EngineStatus{Ready: true}, http.StatusOK},
		{"ready but failed", api.EngineStatus{Ready: true, Failed: true, LastError: "shard 1: boom"}, http.StatusServiceUnavailable},
		{"failed before ready", api.EngineStatus{Failed: true}, http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(deploy.NewService(&stubEngine{status: tc.status}, deploy.Options{}))
			defer srv.Close()
			resp, err := srv.Client().Get(srv.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("healthz %d, want %d", resp.StatusCode, tc.want)
			}
			var st api.EngineStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			if st.Failed != tc.status.Failed || st.LastError != tc.status.LastError {
				t.Fatalf("healthz body %+v, want %+v", st, tc.status)
			}
		})
	}
}

// TestV1MetricsExposition scrapes /v1/metrics after driving some traffic and
// checks the output parses as Prometheus text format with the HTTP families
// present and counting.
func TestV1MetricsExposition(t *testing.T) {
	srv := httptest.NewServer(deploy.NewService(readyStub(), deploy.Options{}))
	defer srv.Close()
	c := srv.Client()

	// Drive one v1 hit and one unmatched path (a retired pre-/v1 route) so
	// both labels have samples.
	getJSON(t, c, srv.URL+"/v1/locations/1", http.StatusOK, nil)
	if resp, err := c.Get(srv.URL + "/location?addr=1"); err == nil {
		resp.Body.Close()
	}

	resp, err := c.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type %q", ct)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, want := range []string{
		"dlinfma_http_requests_total",
		"dlinfma_http_request_duration_seconds",
		"dlinfma_http_in_flight_requests",
	} {
		if _, ok := fams[want]; !ok {
			t.Errorf("family %s missing from /v1/metrics", want)
		}
	}
	var v1Hits, otherHits float64
	for _, s := range fams["dlinfma_http_requests_total"].Samples {
		if s.Labels["route"] == "/v1/locations/{key}" && s.Labels["code"] == "200" {
			v1Hits = s.Value
		}
		if s.Labels["route"] == "other" && s.Labels["code"] == "404" {
			otherHits = s.Value
		}
	}
	if v1Hits < 1 {
		t.Errorf("no counted 200 for /v1/locations/{key}: %+v", fams["dlinfma_http_requests_total"].Samples)
	}
	if otherHits < 1 {
		t.Error(`404 for /location not counted under route="other"`)
	}
}

// TestDebugHandler checks the separate debug surface: the pprof index and a
// parsing /metrics.
func TestDebugHandler(t *testing.T) {
	srv := httptest.NewServer(deploy.DebugHandler(nil, nil))
	defer srv.Close()
	c := srv.Client()

	resp, err := c.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	resp, err = c.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := obs.ParseExposition(resp.Body); err != nil {
		t.Fatalf("debug /metrics does not parse: %v", err)
	}
}
