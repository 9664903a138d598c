// End-to-end tracing acceptance: a traced request served by a 2-shard
// engine during a concurrent background re-inference must yield, through
// the debug API's store, one trace whose span tree links the HTTP root to
// the window's stay-point extraction and core pipeline stage spans — with
// the same trace id stamped on the log lines and the legacy stage
// histograms still counting.
package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"dlinfma/internal/deploy"
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/engine"
	"dlinfma/internal/obs"
	"dlinfma/internal/obs/trace"
	"dlinfma/internal/synth"

	"net/http/httptest"
)

// stageCount scrapes the process-wide registry for one pipeline stage's
// histogram sample count.
func stageCount(t *testing.T, stage string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fam := fams["dlinfma_pipeline_stage_duration_seconds"]
	if fam == nil {
		return 0
	}
	for _, s := range fam.Samples {
		if strings.HasSuffix(s.Name, "_count") && s.Labels["stage"] == stage {
			return s.Value
		}
	}
	return 0
}

func TestTracedRequestThroughShardedEngine(t *testing.T) {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}

	var logBuf bytes.Buffer
	log := obs.NewLogger(&logBuf, obs.LevelDebug, obs.FormatLogfmt)
	store := trace.NewStore(64)
	tracer := trace.NewTracer(trace.Options{SampleProb: 1, Store: store})

	cfg := quickConfig()
	cfg.Logger = log
	cfg.Tracer = tracer
	s := engine.NewSharded(cfg, testRouter(t, 2))
	defer s.Close()
	if err := s.IngestDataset(context.Background(), ds); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(deploy.NewService(s, deploy.Options{Logger: log, Tracer: tracer}))
	defer srv.Close()
	c := srv.Client()

	poolWindowBefore := stageCount(t, "pool_window")
	fitBefore := stageCount(t, "fit")

	// Kick off the background re-inference the traced request must overlap.
	resp, err := c.Post(srv.URL+"/v1/reinfer", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("reinfer start status %d", resp.StatusCode)
	}

	// The traced request: a synthetic upstream traceparent plus a client
	// request id, re-ingesting the dataset's trips so both shards get work.
	body, err := json.Marshal(api.IngestRequest{Trips: ds.Trips})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/ingest", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	req.Header.Set("X-Request-ID", "e2e-trace-req")
	resp, err = c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced ingest status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "e2e-trace-req" {
		t.Fatalf("request id not echoed: %q", got)
	}
	echo, ok := trace.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok || echo.TraceID.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("response traceparent %q does not continue the incoming trace", resp.Header.Get("Traceparent"))
	}

	// The root span publishes after the response flushes; poll the store.
	tid, _ := trace.ParseTraceID("0af7651916cd43dd8448eb211c80319c")
	var tr *trace.Trace
	deadline := time.Now().Add(5 * time.Second)
	for tr = store.Get(tid); tr == nil; tr = store.Get(tid) {
		if time.Now().After(deadline) {
			t.Fatal("traced request never reached the store")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Walk the span tree: HTTP root -> engine.extract_stays for the
	// window's trips, extracted once for every shard, and HTTP root ->
	// engine.seal_window -> pool_window (a core pipeline stage span) for the
	// window's cut.
	byID := map[string]trace.SpanData{}
	for _, sd := range tr.Spans {
		byID[sd.SpanID] = sd
	}
	var root trace.SpanData
	for _, sd := range tr.Spans {
		switch sd.Name {
		case "/v1/ingest":
			root = sd
			if sd.ParentID != "b7ad6b7169203331" {
				t.Errorf("HTTP root's parent is %q, want the remote span b7ad6b7169203331", sd.ParentID)
			}
		case "engine.extract_stays":
			if p := byID[sd.ParentID]; p.Name != "/v1/ingest" {
				t.Errorf("extract_stays parent is %q, want the HTTP root", p.Name)
			}
		case "engine.seal_window":
			if p := byID[sd.ParentID]; p.Name != "/v1/ingest" {
				t.Errorf("seal_window parent is %q, want the HTTP root", p.Name)
			}
		case "pool_window":
			if p := byID[sd.ParentID]; p.Name != "engine.seal_window" {
				t.Errorf("pool_window parent is %q, want engine.seal_window", p.Name)
			}
		}
	}
	if root.Name == "" {
		t.Fatal("HTTP root span missing from the trace")
	}
	count := func(name string) int {
		n := 0
		for _, sd := range tr.Spans {
			if sd.Name == name {
				n++
			}
		}
		return n
	}
	if count("engine.extract_stays") != 1 {
		t.Fatalf("%d stay-point extractions in the request trace, want one", count("engine.extract_stays"))
	}
	if count("pool_window") == 0 {
		t.Fatal("no core pipeline stage span in the request trace")
	}

	// Wait for the background job, then quiesce so the log buffer is safe to
	// read.
	for {
		var job api.JobStatus
		r, err := c.Get(srv.URL + "/v1/reinfer")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if job.State != api.JobRunning {
			if job.State != api.JobDone {
				t.Fatalf("background reinfer ended %q: %s", job.State, job.Error)
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv.Close()
	s.Close()

	// The background job minted its own root trace with per-shard reinfer
	// spans and training-stage spans.
	var jobTrace *trace.Trace
	for _, cand := range store.List(trace.Filter{}) {
		if cand.Root == "engine.reinfer_job" {
			jobTrace = cand
			break
		}
	}
	if jobTrace == nil {
		t.Fatal("background reinfer job trace missing")
	}
	jobNames := map[string]int{}
	for _, sd := range jobTrace.Spans {
		jobNames[sd.Name]++
	}
	for _, want := range []string{"engine.shard_reinfer", "engine.reinfer", "engine.hot_swap", "pool_finalize", "feature_build", "fit", "predict"} {
		if jobNames[want] == 0 {
			t.Errorf("job trace missing %q spans (got %v)", want, jobNames)
		}
	}

	// Legacy stage histograms still count under tracing.
	if got := stageCount(t, "pool_window"); got <= poolWindowBefore {
		t.Errorf("pool_window histogram did not move: %v -> %v", poolWindowBefore, got)
	}
	if got := stageCount(t, "fit"); got <= fitBefore {
		t.Errorf("fit histogram did not move: %v -> %v", fitBefore, got)
	}

	// Log correlation: the engine's ingest lines carry the request trace id.
	logs := logBuf.String()
	if !strings.Contains(logs, "trace_id=0af7651916cd43dd8448eb211c80319c") {
		t.Error("no log line stamped with the request trace id")
	}
	if !strings.Contains(logs, "request_id=e2e-trace-req") {
		t.Error("no access line carrying the client request id")
	}
}
