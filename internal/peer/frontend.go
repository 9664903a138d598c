package peer

import (
	"fmt"
	"net/http"
	"time"

	"dlinfma/internal/obs"
	"dlinfma/internal/shard"
)

// FrontendOptions configures a ring-routed frontend's shard backends.
type FrontendOptions struct {
	// Peers are the base URLs of the shard-serving processes. Order does not
	// matter: the consistent-hash ring sorts members, so every frontend given
	// the same peer set routes identically.
	Peers []string
	// Replication is how many distinct peers serve each shard (owner +
	// replicas, clamped to the peer count; 0 = 1). Writes go to all of them;
	// reads try them in ring order.
	Replication int
	// Timeout, Retries, HTTPClient, Logger configure each backend client;
	// see ClientOptions.
	Timeout    time.Duration
	Retries    int
	HTTPClient *http.Client
	Logger     *obs.Logger
}

// NewFrontendBackends builds one HTTP shard backend per shard of r, each
// pointing at the peers the ring assigns that shard — the owner first, then
// the replicas in ring order, which is also the failover order. The result
// plugs straight into engine.NewShardedBackends: the frontend is then a
// normal sharded engine whose shards happen to live in other processes, and
// the whole /v1 surface (queries with replica failover, replicated ingest,
// fan-out re-inference, aggregated health, manifest snapshots) rides the
// existing deploy stack.
func NewFrontendBackends(r *shard.Router, o FrontendOptions) ([]ShardBackend, *shard.Ring, error) {
	ring, err := shard.NewRing(o.Peers)
	if err != nil {
		return nil, nil, err
	}
	repl := o.Replication
	if repl < 1 {
		repl = 1
	}
	backends := make([]ShardBackend, r.N())
	for sh := range backends {
		c, err := NewClient(ClientOptions{
			Endpoints:  ring.ShardOwners(sh, repl),
			Timeout:    o.Timeout,
			Retries:    o.Retries,
			HTTPClient: o.HTTPClient,
			Logger:     o.Logger,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: shard %d: %w", sh, err)
		}
		backends[sh] = c
	}
	return backends, ring, nil
}
