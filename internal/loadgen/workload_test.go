package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dlinfma/internal/deploy/api"
)

// fakeServer is a minimal /v1 surface that counts hits per endpoint.
type fakeServer struct {
	lookups, batches, streams, reinfers atomic.Int64
	addresses                           int
	reinferBusy                         bool
}

func (f *fakeServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(api.EngineStatus{Ready: true, Addresses: f.addresses})
	})
	mux.HandleFunc("GET /v1/locations/{key}", func(w http.ResponseWriter, r *http.Request) {
		f.lookups.Add(1)
		_ = json.NewEncoder(w).Encode(api.Location{Addr: 1, X: 1, Y: 2, Source: "address"})
	})
	mux.HandleFunc("POST /v1/locations:batch", func(w http.ResponseWriter, r *http.Request) {
		f.batches.Add(1)
		var req api.BatchLocationsRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Addrs) == 0 {
			http.Error(w, "bad batch", http.StatusBadRequest)
			return
		}
		_ = json.NewEncoder(w).Encode(api.BatchLocationsResponse{Found: len(req.Addrs)})
	})
	mux.HandleFunc("POST /v1/trajectories:stream", func(w http.ResponseWriter, r *http.Request) {
		f.streams.Add(1)
		dec := json.NewDecoder(r.Body)
		points, ends := 0, 0
		for dec.More() {
			var p api.StreamPoint
			if err := dec.Decode(&p); err != nil {
				http.Error(w, "bad line", http.StatusBadRequest)
				return
			}
			if p.End {
				ends++
			} else {
				points++
			}
		}
		if points == 0 || ends != 1 {
			http.Error(w, "burst must carry points and one end marker", http.StatusBadRequest)
			return
		}
		_ = json.NewEncoder(w).Encode(api.StreamIngestResponse{Points: points, Ends: ends})
	})
	mux.HandleFunc("POST /v1/reinfer", func(w http.ResponseWriter, r *http.Request) {
		f.reinfers.Add(1)
		if f.reinferBusy {
			w.WriteHeader(http.StatusConflict)
			_ = json.NewEncoder(w).Encode(api.ErrorEnvelope{Error: &api.Error{Code: api.CodeReinferInFlight, Message: "running"}})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(api.JobStatus{ID: 1, State: api.JobRunning})
	})
	return mux
}

// TestWorkloadMixProportions runs a paced stage against the fake server and
// checks every endpoint with weight got traffic in roughly the configured
// ratio, with zero recorded errors.
func TestWorkloadMixProportions(t *testing.T) {
	f := &fakeServer{addresses: 500, reinferBusy: true}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	w, err := NewWorkload(WorkloadConfig{
		Target: srv.URL,
		Mix:    Mix{Lookup: 60, Batch: 20, Stream: 15, Reinfer: 5},
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := RunStage(context.Background(), w, 400, 500*time.Millisecond, StageOptions{Seed: 3})
	if res.Requests < 100 {
		t.Fatalf("only %d requests completed", res.Requests)
	}
	if res.Errors != 0 {
		snap := w.Stats().Snapshot()
		for _, e := range snap.Endpoints {
			if e.Errors > 0 {
				t.Errorf("%s: %d errors, last: %s", e.Endpoint, e.Errors, e.LastErr)
			}
		}
		t.Fatalf("%d errors against a compliant server", res.Errors)
	}
	total := float64(f.lookups.Load() + f.batches.Load() + f.streams.Load() + f.reinfers.Load())
	for _, c := range []struct {
		name string
		got  int64
		frac float64
	}{
		{"lookup", f.lookups.Load(), 0.60},
		{"batch", f.batches.Load(), 0.20},
		{"stream", f.streams.Load(), 0.15},
		{"reinfer", f.reinfers.Load(), 0.05},
	} {
		gotFrac := float64(c.got) / total
		if gotFrac < c.frac/2 || gotFrac > c.frac*2 {
			t.Errorf("%s got %.0f%% of traffic, configured %.0f%%", c.name, gotFrac*100, c.frac*100)
		}
	}
	// A busy reinfer answers 409, which is the documented contract, not an
	// error — checked above via res.Errors == 0 with reinferBusy set.
}

// TestWorkloadLearnsUniverseFromHealthz checks the address universe comes
// from the typed health payload: every sampled lookup key must fall inside
// [0, Addresses).
func TestWorkloadLearnsUniverseFromHealthz(t *testing.T) {
	const universe = 37
	var bad atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(api.EngineStatus{Ready: true, Addresses: universe})
	})
	mux.HandleFunc("GET /v1/locations/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		var n int
		if _, err := jsonNumber(key, &n); err != nil || n < 0 || n >= universe {
			bad.Add(1)
		}
		_ = json.NewEncoder(w).Encode(api.Location{})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	w, err := NewWorkload(WorkloadConfig{Target: srv.URL, Mix: Mix{Lookup: 1}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		w.Next()(context.Background())
	}
	if bad.Load() != 0 {
		t.Fatalf("%d lookups outside the advertised universe of %d", bad.Load(), universe)
	}
}

// jsonNumber parses a decimal string (helper keeping the test free of
// strconv noise in assertions).
func jsonNumber(s string, n *int) (int, error) {
	err := json.Unmarshal([]byte(s), n)
	return *n, err
}

// TestWorkloadHealthTyped checks Health decodes the typed EngineStatus.
func TestWorkloadHealthTyped(t *testing.T) {
	f := &fakeServer{addresses: 12}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()
	w, err := NewWorkload(WorkloadConfig{Target: srv.URL, Mix: DefaultMix(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := w.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Ready || st.Addresses != 12 {
		t.Fatalf("typed health %+v", st)
	}
}

// TestWorkloadErrorClassification checks 5xx and non-contract statuses are
// errors while contract statuses are not.
func TestWorkloadErrorClassification(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(api.EngineStatus{Ready: true, Addresses: 10})
	})
	mux.HandleFunc("GET /v1/locations/{key}", func(w http.ResponseWriter, r *http.Request) {
		switch r.PathValue("key") {
		case "0":
			w.WriteHeader(http.StatusNotFound) // contract: miss, not error
		default:
			w.WriteHeader(http.StatusInternalServerError)
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	w, err := NewWorkload(WorkloadConfig{Target: srv.URL, Mix: Mix{Lookup: 1}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	w.do(context.Background(), opArgs{ep: EPLookup, addr: 0})
	w.do(context.Background(), opArgs{ep: EPLookup, addr: 5})
	snap := w.Stats().Snapshot()
	e := snap.Endpoints[EPLookup]
	if e.OK != 1 || e.Errors != 1 {
		t.Fatalf("ok=%d errs=%d, want 1/1 (404 is contract, 500 is error)", e.OK, e.Errors)
	}
	if !strings.Contains(e.LastErr, "500") {
		t.Fatalf("last error %q should name the status", e.LastErr)
	}
}

// TestReportLatenciesAreMilliseconds marshals the two records cmd/swarm's
// report embeds and reads back the number each "_ms" key promises: a 170 µs
// interval percentile must read 0.17, and a stage's p99 must be the stage
// histogram's p99 in milliseconds.
func TestReportLatenciesAreMilliseconds(t *testing.T) {
	readMS := func(v any, keys ...string) map[string]float64 {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]any
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, k := range keys {
			f, ok := got[k].(float64)
			if !ok {
				t.Fatalf("key %q missing from %s", k, data)
			}
			out[k] = f
		}
		return out
	}

	// Interval sample: the first tick records, the second holds the delta.
	stats, ts := NewStats(), NewTimeseries()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	Sample(ctx, stats, ts, 5*time.Millisecond, time.Now(), 40, func(SeriesPoint) {
		if len(ts.Points()) == 1 {
			for i := 0; i < 100; i++ {
				stats.Record(EPLookup, 170*time.Microsecond, nil)
			}
			return
		}
		cancel()
	})
	pt := readMS(ts.Points()[1], "offset_ms", "p50_ms", "p99_ms")
	for _, k := range []string{"p50_ms", "p99_ms"} {
		if pt[k] < 0.16 || pt[k] > 0.18 { // HDR buckets are ~3% wide
			t.Errorf("series %s = %v for a 170µs latency, want ~0.17", k, pt[k])
		}
	}
	if pt["offset_ms"] < 10 || pt["offset_ms"] > 5000 {
		t.Errorf("series offset_ms = %v after two 5ms ticks", pt["offset_ms"])
	}

	// Stage summary against the loopback fake.
	srv := httptest.NewServer((&fakeServer{addresses: 50}).handler())
	defer srv.Close()
	w, err := NewWorkload(WorkloadConfig{Target: srv.URL, Mix: Mix{Lookup: 1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := RunStage(context.Background(), w, 200, 200*time.Millisecond, StageOptions{})
	hist := w.Stats().Snapshot().Merged()
	st := readMS(res, "p50_ms", "p95_ms", "p99_ms", "max_ms")
	for k, q := range map[string]time.Duration{
		"p50_ms": hist.Quantile(0.50), "p95_ms": hist.Quantile(0.95),
		"p99_ms": hist.Quantile(0.99), "max_ms": hist.Max(),
	} {
		if want := float64(q) / float64(time.Millisecond); st[k] != want || want <= 0 {
			t.Errorf("stage %s = %v, histogram says %v ms", k, st[k], want)
		}
	}
	if st["p99_ms"] >= 1000 {
		t.Errorf("stage p99_ms = %v against a loopback server", st["p99_ms"])
	}
}
