package engine

import (
	"bytes"
	"context"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dlinfma/internal/deploy"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/traj"
)

// TestServingPathsTakeNoEvidenceLock: a batch lookup and a lookup that misses
// both ask the engine's Status, a streamed fix checks the backpressure bound,
// and a snapshot copies the address registry — and all must answer while
// both of every shard's evidence locks and the job lock are held. A cut
// takes evidence.mu, as every intake does, to hand over the open window,
// then evidence.sealer, which the window's seal holds across its
// clustering; a re-inference's view holds evidence.sealer through
// FinalizeCtx.
func TestServingPathsTakeNoEvidenceLock(t *testing.T) {
	const deadline = 2 * time.Second
	doc := newTestCity(3, 24).doc(t)
	for _, shards := range []int{1, 3} {
		e := scanTestEngine(t, shards)
		defer e.Close()
		if err := e.RestoreSnapshot(bytes.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
		e.cfg.MaxPendingTrips = 1000 // a streamed fix now reads the backlog
		svc := deploy.NewService(e, deploy.Options{})

		for _, sh := range e.shards {
			sh.ev.mu.Lock()
			sh.ev.sealer.Lock()
		}
		e.jobMu.Lock()
		type answer struct {
			name string
			code int
		}
		reqs := []*http.Request{
			httptest.NewRequest(http.MethodPost, "/v1/locations:batch", strings.NewReader(`{"addrs":[0,1,99999]}`)),
			httptest.NewRequest(http.MethodGet, "/v1/locations/99999", nil),
			httptest.NewRequest(http.MethodPost, "/v1/trajectories:stream", strings.NewReader(`{"courier":7,"x":1,"y":2,"t":3}`)),
			httptest.NewRequest(http.MethodGet, "/v1/snapshot", nil),
		}
		done := make(chan answer, len(reqs))
		var wg sync.WaitGroup
		for _, req := range reqs {
			wg.Add(1)
			go func(req *http.Request) {
				defer wg.Done()
				rec := httptest.NewRecorder()
				svc.ServeHTTP(rec, req)
				done <- answer{req.Method + " " + req.URL.Path, rec.Code}
			}(req)
		}
		want := map[string]int{
			"POST /v1/locations:batch":     http.StatusOK,
			"GET /v1/locations/99999":      http.StatusNotFound,
			"POST /v1/trajectories:stream": http.StatusOK,
			"GET /v1/snapshot":             http.StatusOK,
		}
		timeout := time.After(deadline)
		unanswered := maps.Clone(want)
	wait:
		for range want {
			select {
			case a := <-done:
				delete(unanswered, a.name)
				if a.code != want[a.name] {
					t.Errorf("shards=%d: %s answered %d, want %d", shards, a.name, a.code, want[a.name])
				}
			case <-timeout:
				t.Errorf("shards=%d: %v did not answer within %v while the evidence locks were held",
					shards, sortedKeys(unanswered), deadline)
				break wait
			}
		}
		e.jobMu.Unlock()
		for _, sh := range e.shards {
			sh.ev.sealer.Unlock()
			sh.ev.mu.Unlock()
		}
		wg.Wait() // a stuck request finishes before its engine closes
	}
}

// TestEvidenceReadersRaceWriters runs the readers of the published counts —
// Status, the backpressure check and the snapshot writer, which encodes the
// address registry itself — while windows register new addresses and
// streamed fixes close trips. It asserts little: it is there for the race
// detector.
func TestEvidenceReadersRaceWriters(t *testing.T) {
	const added = 200
	doc := newTestCity(4, 24).doc(t)
	for _, shards := range []int{1, 3} {
		e := scanTestEngine(t, shards)
		defer e.Close()
		if err := e.RestoreSnapshot(bytes.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
		e.cfg.MaxPendingTrips = 1000
		ctx := context.Background()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < added; i++ {
				a := model.AddressInfo{ID: model.AddressID(1000 + i), Geocode: geo.Point{X: float64(i * 100)}}
				if err := e.Ingest(ctx, nil, []model.AddressInfo{a}, nil); err != nil {
					t.Error(err)
					return
				}
				// 1000 s apart: every fix closes the trip of the one before.
				if err := e.IngestPoint(ctx, 7, traj.GPSPoint{P: a.Geocode, T: float64(i * 1000)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for i := 0; i < 50; i++ {
			if err := e.WriteSnapshot(io.Discard); err != nil {
				t.Error(err)
			}
			e.Status()
		}
		wg.Wait()
		if st := e.Status(); st.Addresses != 24+added || st.PendingTrips != added-1 {
			t.Errorf("shards=%d: %d addresses, %d pending trips; want %d, %d",
				shards, st.Addresses, st.PendingTrips, 24+added, added-1)
		}
	}
}
