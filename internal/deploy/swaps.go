package deploy

import (
	"net/http"
	"slices"
	"strconv"

	"dlinfma/internal/deploy/api"
)

// SwapReporter is the hot-swap observability surface: the engine's
// churn-report rings, which GET /v1/debug/swaps serves. An engine with no
// reports — a remote frontend whose shards live in other processes — answers
// an empty list, so the endpoint is always mounted and probing it always
// works.
type SwapReporter interface {
	// SwapReports returns up to limit churn reports, newest first.
	SwapReports(limit int) []api.SwapReport
}

// maxSwapList bounds a list response when the client sends no limit.
const maxSwapList = 32

// maxSwapListLimit is the hard ceiling on an explicit ?limit=: the ring
// buffer behind the reports is itself small, so anything larger is a typo.
const maxSwapListLimit = 1024

// swapListParams is the full query-parameter vocabulary of
// GET /v1/debug/swaps. Anything else is rejected with invalid_argument
// rather than silently ignored.
var swapListParams = []string{"limit"}

// swapListHandler serves GET /v1/debug/swaps: recent hot-swap churn reports,
// newest first, bounded by ?limit=. No reports answer an empty list.
func swapListHandler(sw SwapReporter) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		limit := maxSwapList
		q := r.URL.Query()
		for name := range q {
			if !slices.Contains(swapListParams, name) {
				writeError(w, http.StatusBadRequest, api.CodeInvalidArgument,
					"unknown query parameter", map[string]any{"param": name, "allowed": swapListParams})
				return
			}
		}
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 || n > maxSwapListLimit {
				writeError(w, http.StatusBadRequest, api.CodeInvalidArgument,
					"limit must be a positive integer", map[string]any{"limit": v, "max": maxSwapListLimit})
				return
			}
			limit = n
		}
		resp := api.SwapsResponse{Swaps: []api.SwapReport{}}
		if reps := sw.SwapReports(limit); len(reps) > 0 {
			resp.Swaps = reps
		}
		resp.Count = len(resp.Swaps)
		writeJSON(w, http.StatusOK, resp)
	}
}
