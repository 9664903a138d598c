package peer

import "dlinfma/internal/obs"

// Transport metrics. Route labels are the fixed /v1 route table, endpoint
// identity is deliberately not a label (peer sets are operator input and
// would blow up cardinality); per-peer failures surface in logs and the
// aggregated /healthz instead.
var (
	rpcOutcomes = obs.Default.CounterVec("dlinfma_cluster_rpcs_total",
		"Shard-backend RPCs by route and outcome (ok/error). One RPC may try several endpoints.",
		"route", "outcome")
	rpcFailovers = obs.Default.Counter("dlinfma_cluster_rpc_failovers_total",
		"Shard-backend attempts made past a call's first (another endpoint or a retry), writes included.")

	frontendFailovers = obs.Default.Counter("dlinfma_cluster_frontend_failovers_total",
		"Shard-backend calls answered by an attempt past their first, writes included.")
	frontendPeerErrors = obs.Default.Counter("dlinfma_cluster_frontend_peer_errors_total",
		"Shard-backend calls that failed after exhausting their retry budget, writes included.")
)

// countRPC records one finished backend RPC.
func countRPC(route string, err error) {
	if err != nil {
		rpcOutcomes.With(route, "error").Inc()
		return
	}
	rpcOutcomes.With(route, "ok").Inc()
}
