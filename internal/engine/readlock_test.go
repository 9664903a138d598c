package engine

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dlinfma/internal/deploy"
)

// TestReadPathTakesNoShardLock: a batch lookup and a lookup that misses both
// ask the engine's Status, and must answer while every shard's ingest lock
// and the job lock are held — as Shard.Ingest holds mu across a window's
// clustering and a re-inference holds the shard through FinalizeCtx.
func TestReadPathTakesNoShardLock(t *testing.T) {
	const deadline = 2 * time.Second
	doc := newTestCity(3, 24).doc(t)
	for _, shards := range []int{1, 3} {
		e := scanTestEngine(t, shards)
		defer e.Close()
		if err := e.RestoreSnapshot(bytes.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
		svc := deploy.NewService(e, deploy.Options{})

		for _, sh := range e.shards {
			sh.mu.Lock()
		}
		e.jobMu.Lock()
		type answer struct {
			name string
			code int
		}
		done := make(chan answer, 2)
		var wg sync.WaitGroup
		for _, req := range []*http.Request{
			httptest.NewRequest(http.MethodPost, "/v1/locations:batch", strings.NewReader(`{"addrs":[0,1,99999]}`)),
			httptest.NewRequest(http.MethodGet, "/v1/locations/99999", nil),
		} {
			wg.Add(1)
			go func(req *http.Request) {
				defer wg.Done()
				rec := httptest.NewRecorder()
				svc.ServeHTTP(rec, req)
				done <- answer{req.Method + " " + req.URL.Path, rec.Code}
			}(req)
		}
		want := map[string]int{
			"POST /v1/locations:batch": http.StatusOK,
			"GET /v1/locations/99999":  http.StatusNotFound,
		}
		timeout := time.After(deadline)
	wait:
		for range want {
			select {
			case a := <-done:
				if a.code != want[a.name] {
					t.Errorf("shards=%d: %s answered %d, want %d", shards, a.name, a.code, want[a.name])
				}
			case <-timeout:
				t.Errorf("shards=%d: %d of 2 lookups did not answer within %v while the shard lock was held",
					shards, 2-len(done), deadline)
				break wait
			}
		}
		e.jobMu.Unlock()
		for _, sh := range e.shards {
			sh.mu.Unlock()
		}
		wg.Wait() // a stuck request finishes before its engine closes
	}
}
