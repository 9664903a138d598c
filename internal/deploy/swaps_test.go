// Tests for GET /v1/debug/swaps: the SwapReporter surface, the
// limit/parameter validation, and the always-mounted empty answer for
// engines with no reports.
package deploy_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dlinfma/internal/deploy"
	"dlinfma/internal/deploy/api"
)

// reportingStub is a stubEngine that also keeps swap reports.
type reportingStub struct {
	*stubEngine
	reps []api.SwapReport
}

func (r *reportingStub) SwapReports(limit int) []api.SwapReport {
	out := append([]api.SwapReport(nil), r.reps...)
	if limit > 0 && limit < len(out) {
		out = out[:limit]
	}
	return out
}

func swapStub() *reportingStub {
	return &reportingStub{
		stubEngine: readyStub(),
		reps: []api.SwapReport{
			{
				Seq: 2, Shard: "global", Time: time.Unix(2000, 0).UTC(), Kind: "reinfer",
				Before: 10, After: 12, Added: 2, Moved: 3, Retained: 7,
				ChurnRatio: 0.3, MeanMovedMeters: 41.5, MaxMovedMeters: 120,
				MovedDistance: []api.SwapDistanceBucket{{LEMeters: 50, Count: 2}, {LEMeters: 250, Count: 1}},
				LowConfidence: 1,
			},
			{Seq: 1, Shard: "global", Time: time.Unix(1000, 0).UTC(), Kind: "restore", After: 10, Added: 10},
		},
	}
}

func getSwaps(t *testing.T, srv *httptest.Server, query string) (*http.Response, api.SwapsResponse) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/debug/swaps" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.SwapsResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestDebugSwapsEndpoint(t *testing.T) {
	srv := httptest.NewServer(deploy.NewService(swapStub(), deploy.Options{}))
	defer srv.Close()

	resp, out := getSwaps(t, srv, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/swaps = %d", resp.StatusCode)
	}
	if out.Count != 2 || len(out.Swaps) != 2 {
		t.Fatalf("count=%d swaps=%d, want 2/2", out.Count, len(out.Swaps))
	}
	first := out.Swaps[0]
	if first.Seq != 2 || first.Kind != "reinfer" || first.Moved != 3 || first.ChurnRatio != 0.3 {
		t.Errorf("first report round-tripped wrong: %+v", first)
	}
	if len(first.MovedDistance) != 2 || first.MovedDistance[0].LEMeters != 50 {
		t.Errorf("distance buckets round-tripped wrong: %+v", first.MovedDistance)
	}

	if _, out := getSwaps(t, srv, "?limit=1"); out.Count != 1 || out.Swaps[0].Seq != 2 {
		t.Errorf("limit=1 answered %+v, want just the newest", out)
	}
}

func TestDebugSwapsValidation(t *testing.T) {
	srv := httptest.NewServer(deploy.NewService(swapStub(), deploy.Options{}))
	defer srv.Close()

	for _, query := range []string{"?limit=0", "?limit=-1", "?limit=nope", "?limit=99999", "?shard=3"} {
		resp, _ := getSwaps(t, srv, query)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/debug/swaps%s = %d, want 400", query, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/debug/swaps", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/debug/swaps = %d, want 405", resp.StatusCode)
	}
}

// TestDebugSwapsWithoutReporter pins the always-mounted contract: an engine
// with no reports answers an empty list, not a 404.
func TestDebugSwapsWithoutReporter(t *testing.T) {
	srv := httptest.NewServer(deploy.NewService(readyStub(), deploy.Options{}))
	defer srv.Close()
	resp, out := getSwaps(t, srv, "")
	if resp.StatusCode != http.StatusOK || out.Count != 0 || out.Swaps == nil {
		t.Fatalf("no-reporter answer: status %d, %+v (want 200 with empty non-null list)", resp.StatusCode, out)
	}
}
