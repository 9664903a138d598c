// External test package: these tests drive the engine-backed Service over
// HTTP with the real internal/engine implementation (deploy itself cannot
// import engine — the dependency points the other way).
package deploy_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dlinfma/internal/deploy"
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/engine"
	"dlinfma/internal/model"
	"dlinfma/internal/shard"
	"dlinfma/internal/synth"
)

func serviceFixture(t *testing.T) (*model.Dataset, *engine.Engine, *httptest.Server) {
	t.Helper()
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	cfg.Matcher.MaxEpochs = 2
	cfg.Matcher.LR = 1e-3
	e := engine.New(cfg)
	t.Cleanup(e.Close)
	srv := httptest.NewServer(deploy.NewService(e, deploy.Options{}))
	t.Cleanup(srv.Close)
	return ds, e, srv
}

func getJSON(t *testing.T, c *http.Client, url string, wantCode int, v any) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: Content-Type %q", url, ct)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

func postJSON(t *testing.T, c *http.Client, url string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := c.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServiceIngestReinferQuery walks the full online lifecycle over HTTP:
// a cold engine answers 503s, one ingest window arrives, a background
// re-inference is started and polled to completion, then queries and the
// snapshot endpoint serve the new state — all without restarting the server.
func TestServiceIngestReinferQuery(t *testing.T) {
	ds, _, srv := serviceFixture(t)
	c := srv.Client()

	// Cold engine: not ready, no job yet, nothing to snapshot or query.
	var st api.EngineStatus
	getJSON(t, c, srv.URL+"/v1/healthz", http.StatusServiceUnavailable, &st)
	if st.Ready || st.Addresses != 0 {
		t.Fatalf("cold status %+v", st)
	}
	getJSON(t, c, srv.URL+"/v1/reinfer", http.StatusNotFound, nil)
	getJSON(t, c, srv.URL+"/v1/snapshot", http.StatusServiceUnavailable, nil)

	// Ingest the whole tiny dataset as one window.
	req := api.IngestRequest{
		Trips:     ds.Trips,
		Addresses: ds.Addresses,
		Truth:     make(map[string][2]float64, len(ds.Truth)),
	}
	for id, p := range ds.Truth {
		req.Truth[fmt.Sprint(id)] = [2]float64{p.X, p.Y}
	}
	resp := postJSON(t, c, srv.URL+"/v1/ingest", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Addresses != len(ds.Addresses) || st.PendingTrips != len(ds.Trips) {
		t.Fatalf("post-ingest status %+v", st)
	}

	// Start the background job; a duplicate start conflicts with the running
	// job's status as the body.
	resp = postJSON(t, c, srv.URL+"/v1/reinfer", nil)
	var job api.JobStatus
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("reinfer start status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if job.State != api.JobRunning {
		t.Fatalf("started job %+v", job)
	}
	resp = postJSON(t, c, srv.URL+"/v1/reinfer", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate reinfer status %d, want 409", resp.StatusCode)
	}
	var conflict api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&conflict); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if conflict.Error == nil || conflict.Error.Code != api.CodeReinferInFlight {
		t.Fatalf("conflict envelope %+v", conflict)
	}
	if id, ok := conflict.Error.Details["job_id"].(float64); !ok || int(id) != job.ID {
		t.Fatalf("conflict details report job %v, want %d", conflict.Error.Details["job_id"], job.ID)
	}

	// Poll until done.
	deadline := time.After(2 * time.Minute)
	for job.State == api.JobRunning {
		select {
		case <-deadline:
			t.Fatal("re-inference job did not finish")
		case <-time.After(20 * time.Millisecond):
		}
		getJSON(t, c, srv.URL+"/v1/reinfer", http.StatusOK, &job)
	}
	if job.State != api.JobDone {
		t.Fatalf("job ended %+v", job)
	}

	// Now ready: healthz flips to 200 and queries answer.
	getJSON(t, c, srv.URL+"/v1/healthz", http.StatusOK, &st)
	if !st.Ready || st.Inferred == 0 || st.PendingTrips != 0 {
		t.Fatalf("ready status %+v", st)
	}
	addr := ds.Trips[0].Waybills[0].Addr
	var qr api.Location
	getJSON(t, c, fmt.Sprintf("%s/v1/locations/%d", srv.URL, addr), http.StatusOK, &qr)
	if qr.Addr != int64(addr) || qr.Source == "none" {
		t.Fatalf("query response %+v", qr)
	}

	// The snapshot endpoint streams a state a fresh engine can serve from.
	resp, err := c.Get(srv.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	restored := engine.New(engine.DefaultConfig())
	defer restored.Close()
	if err := restored.RestoreSnapshot(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	p, src := restored.Query(addr)
	if src == deploy.SourceNone {
		t.Fatal("restored engine cannot answer")
	}
	if p.X != qr.X || p.Y != qr.Y {
		t.Errorf("restored answer %v, served (%v,%v)", p, qr.X, qr.Y)
	}
}

func TestServiceErrorPaths(t *testing.T) {
	_, _, srv := serviceFixture(t)
	c := srv.Client()

	check := func(resp *http.Response, wantCode int, wantErrCode, what string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("%s: status %d, want %d", what, resp.StatusCode, wantCode)
		}
		var eb api.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == nil {
			t.Fatalf("%s: error body not an envelope: %v %+v", what, err, eb)
		}
		if eb.Error.Code != wantErrCode || eb.Error.Message == "" {
			t.Fatalf("%s: envelope %+v, want code %q", what, eb.Error, wantErrCode)
		}
	}

	resp, _ := c.Get(srv.URL + "/v1/locations/abc")
	check(resp, http.StatusBadRequest, api.CodeInvalidArgument, "bad addr")
	// A cold engine distinguishes "not ready" from "not found".
	resp, _ = c.Get(srv.URL + "/v1/locations/424242")
	check(resp, http.StatusServiceUnavailable, api.CodeEngineNotReady, "query on cold engine")
	resp = postJSON(t, c, srv.URL+"/v1/locations/1", nil)
	check(resp, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "POST /v1/locations/{key}")
	resp, _ = c.Get(srv.URL + "/v1/ingest")
	check(resp, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET /v1/ingest")
	resp, _ = c.Post(srv.URL+"/v1/ingest", "application/json", bytes.NewReader([]byte("{nope")))
	check(resp, http.StatusBadRequest, api.CodeInvalidArgument, "bad ingest body")
	resp, _ = c.Post(srv.URL+"/v1/ingest", "application/json",
		bytes.NewReader([]byte(`{"truth":{"xyz":[1,2]}}`)))
	check(resp, http.StatusBadRequest, api.CodeInvalidArgument, "bad truth key")
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/reinfer", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = c.Do(req)
	check(resp, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "DELETE /v1/reinfer")
	resp = postJSON(t, c, srv.URL+"/v1/snapshot", nil)
	check(resp, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "POST /v1/snapshot")
	resp, _ = c.Get(srv.URL + "/no/such/route")
	check(resp, http.StatusNotFound, api.CodeNotFound, "unmatched path")
}

// TestServiceShardedHealthz serves a multi-shard engine through the same handler:
// /v1/healthz carries the per-shard breakdown, queries route to the owning
// shard, and /v1/snapshot streams a manifest a fresh sharded engine restores.
func TestServiceShardedHealthz(t *testing.T) {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	cfg.Matcher.MaxEpochs = 2
	cfg.Matcher.LR = 1e-3
	newSharded := func() *engine.Engine {
		r, err := shard.NewRouter(3, 8)
		if err != nil {
			t.Fatal(err)
		}
		s := engine.NewSharded(cfg, r)
		t.Cleanup(s.Close)
		return s
	}
	s := newSharded()
	if err := s.IngestDataset(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	if err := s.Reinfer(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(deploy.NewService(s, deploy.Options{}))
	t.Cleanup(srv.Close)
	c := srv.Client()

	var st api.EngineStatus
	getJSON(t, c, srv.URL+"/v1/healthz", http.StatusOK, &st)
	if !st.Ready {
		t.Fatalf("sharded healthz %+v", st)
	}
	if len(st.Shards) != 3 {
		t.Fatalf("healthz lists %d shards, want 3", len(st.Shards))
	}
	addrs, inferred := 0, 0
	for i, sh := range st.Shards {
		if sh.Shard != i {
			t.Errorf("shard %d labelled %d", i, sh.Shard)
		}
		addrs += sh.Addresses
		inferred += sh.Inferred
	}
	if addrs != st.Addresses || inferred != st.Inferred {
		t.Errorf("shard sums %d/%d, top-level %d/%d", addrs, inferred, st.Addresses, st.Inferred)
	}

	addr := ds.Trips[0].Waybills[0].Addr
	var qr api.Location
	getJSON(t, c, fmt.Sprintf("%s/v1/locations/%d", srv.URL, addr), http.StatusOK, &qr)
	if qr.Source == "none" {
		t.Fatalf("sharded query %+v", qr)
	}

	resp, err := c.Get(srv.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	restored := newSharded()
	if err := restored.RestoreSnapshot(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	p, src := restored.Query(addr)
	if src == deploy.SourceNone || p.X != qr.X || p.Y != qr.Y {
		t.Errorf("restored sharded answer %v/%v, served (%v,%v)", p, src, qr.X, qr.Y)
	}
}
