package peer

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dlinfma/internal/deploy"
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/obs"
	"dlinfma/internal/obs/trace"
)

// Route labels for the RPC metrics (fixed set, mirroring the /v1 table).
const (
	routeLocation = "/v1/locations/{key}"
	routeBatch    = "/v1/locations:batch"
	routeIngest   = "/v1/ingest"
	routeReinfer  = "/v1/reinfer"
	routeSnapshot = "/v1/snapshot"
	routeHealthz  = "/v1/healthz"
)

// DefaultTimeout bounds one HTTP call of a backend RPC when ClientOptions
// leaves Timeout zero. Reads are sub-millisecond server-side, so five seconds
// is network headroom, not a latency target.
const DefaultTimeout = 5 * time.Second

// pollInterval is how often Reinfer polls the remote job.
const pollInterval = 250 * time.Millisecond

// snapshotTimeoutFactor scales the per-call timeout for snapshot downloads,
// which stream megabytes where every other route moves kilobytes.
const snapshotTimeoutFactor = 12

// ClientOptions configures an HTTP shard backend.
type ClientOptions struct {
	// Endpoints are the base URLs serving the shard, the ring owner first and
	// its replicas after. Every call walks the list in order until one
	// endpoint answers; at least one endpoint is required.
	Endpoints []string
	// Timeout bounds each HTTP call (0 = DefaultTimeout). Reinfer applies it
	// per poll, not to the whole retrain.
	Timeout time.Duration
	// Retries is how many extra passes over the endpoint list a failing call
	// makes after the first (<0 = 0). The total attempt budget per call is
	// (1+Retries) * len(Endpoints).
	Retries int
	// HTTPClient, when set, replaces the default transport (tests inject
	// httptest clients here). Per-call timeouts still come from Timeout.
	HTTPClient *http.Client
	// Logger receives failover warnings. nil drops them.
	Logger *obs.Logger
}

// Client is the HTTP ShardBackend: every operation of the seam mapped onto
// the existing /v1 wire surface, with per-call timeouts, bounded retry across
// the owner-then-replicas endpoint list, and W3C traceparent plus
// X-Request-ID propagation on every hop so the remote server span parents
// under the caller's trace.
type Client struct {
	endpoints []string
	timeout   time.Duration
	rounds    int
	hc        *http.Client
	log       *obs.Logger
	// frontend marks clients built by NewFrontendBackends so ring-owner
	// failovers surface on the frontend-facing counters too.
	frontend bool
}

// NewClient returns an HTTP backend over o.Endpoints.
func NewClient(o ClientOptions) (*Client, error) {
	if len(o.Endpoints) == 0 {
		return nil, errors.New("cluster: no endpoints")
	}
	eps := make([]string, len(o.Endpoints))
	for i, ep := range o.Endpoints {
		for len(ep) > 0 && ep[len(ep)-1] == '/' {
			ep = ep[:len(ep)-1]
		}
		if ep == "" {
			return nil, fmt.Errorf("cluster: empty endpoint at index %d", i)
		}
		eps[i] = ep
	}
	c := &Client{
		endpoints: eps,
		timeout:   o.Timeout,
		rounds:    1 + o.Retries,
		hc:        o.HTTPClient,
		log:       o.Logger,
	}
	if c.timeout <= 0 {
		c.timeout = DefaultTimeout
	}
	if c.rounds < 1 {
		c.rounds = 1
	}
	if c.hc == nil {
		c.hc = &http.Client{}
	}
	return c, nil
}

// Endpoint returns the client's primary (owner) endpoint.
func (c *Client) Endpoint() string { return c.endpoints[0] }

// roundTrip performs one attempt against one endpoint: per-attempt timeout,
// its own client span (so the remote server span parents under this exact
// hop), and trace/correlation header injection.
func (c *Client) roundTrip(ctx context.Context, endpoint, method, path string, body []byte) (int, []byte, error) {
	ctx, sp := trace.Start(ctx, "cluster.rpc")
	sp.SetAttr("endpoint", endpoint)
	sp.SetAttr("path", path)
	defer sp.End()
	cctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(cctx, method, endpoint+path, rd)
	if err != nil {
		sp.RecordError(err)
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tsp := trace.SpanFromContext(ctx); tsp != nil {
		req.Header.Set("traceparent", tsp.Traceparent())
	}
	if id := deploy.RequestID(ctx); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		sp.RecordError(err)
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		sp.RecordError(err)
		return 0, nil, err
	}
	sp.SetAttr("status", resp.StatusCode)
	return resp.StatusCode, data, nil
}

// call walks the endpoint list (owner first) up to the retry budget and
// returns the first delivered response. Transport failures and 5xx statuses
// other than 503 fail over to the next endpoint; everything else — including
// 503, which is a meaningful engine_not_ready answer — is the caller's to
// interpret.
func (c *Client) call(ctx context.Context, route, method, path string, body []byte) (int, []byte, error) {
	var lastErr error
	for round := 0; round < c.rounds; round++ {
		for i, ep := range c.endpoints {
			if err := ctx.Err(); err != nil {
				countRPC(route, err)
				return 0, nil, err
			}
			if round > 0 || i > 0 {
				rpcFailovers.Inc()
			}
			status, data, err := c.roundTrip(ctx, ep, method, path, body)
			if err != nil {
				lastErr = fmt.Errorf("cluster: %s %s%s: %w", method, ep, path, err)
				c.log.Warn("backend endpoint failed", "endpoint", ep, "path", path, "err", err)
				continue
			}
			if status >= http.StatusInternalServerError && status != http.StatusServiceUnavailable {
				lastErr = apiError(status, data)
				c.log.Warn("backend endpoint errored", "endpoint", ep, "path", path, "status", status)
				continue
			}
			if c.frontend && (round > 0 || i > 0) {
				frontendFailovers.Inc()
			}
			countRPC(route, nil)
			return status, data, nil
		}
	}
	if c.frontend {
		frontendPeerErrors.Inc()
	}
	countRPC(route, lastErr)
	return 0, nil, lastErr
}

// callEndpoint is call pinned to one endpoint: the same retry budget and 5xx
// semantics, no failover. The replicated write paths use it so every replica
// is driven individually.
func (c *Client) callEndpoint(ctx context.Context, route, method, path string, body []byte, ep string) (int, []byte, error) {
	var lastErr error
	for round := 0; round < c.rounds; round++ {
		if err := ctx.Err(); err != nil {
			countRPC(route, err)
			return 0, nil, err
		}
		status, data, err := c.roundTrip(ctx, ep, method, path, body)
		if err != nil {
			lastErr = fmt.Errorf("cluster: %s %s%s: %w", method, ep, path, err)
			c.log.Warn("backend endpoint failed", "endpoint", ep, "path", path, "err", err)
			continue
		}
		if status >= http.StatusInternalServerError && status != http.StatusServiceUnavailable {
			lastErr = apiError(status, data)
			c.log.Warn("backend endpoint errored", "endpoint", ep, "path", path, "status", status)
			continue
		}
		countRPC(route, nil)
		return status, data, nil
	}
	countRPC(route, lastErr)
	return 0, nil, lastErr
}

// apiError turns a non-2xx response into an error, preserving the uniform
// envelope's code when the body carries one.
func apiError(status int, data []byte) error {
	var env api.ErrorEnvelope
	if json.Unmarshal(data, &env) == nil && env.Error != nil {
		switch env.Error.Code {
		case api.CodeBackpressure:
			return fmt.Errorf("%w (remote: %s)", deploy.ErrBackpressure, env.Error.Message)
		case api.CodeEngineNotReady:
			return fmt.Errorf("%w (remote: %s)", ErrNotReady, env.Error.Message)
		}
		return fmt.Errorf("cluster: remote %s", env.Error)
	}
	body := string(data)
	if len(body) > 200 {
		body = body[:200] + "..."
	}
	return fmt.Errorf("cluster: remote http %d: %s", status, body)
}

// Query answers one address (ShardBackend). The plain form has no context —
// it sits behind the engine's lock-free Query signature — so the hop runs
// under the client's own timeout; total transport failure answers
// SourceNone, matching a cold local shard.
func (c *Client) Query(addr model.AddressID) (geo.Point, deploy.Source) {
	p, src, _ := c.QueryOne(context.Background(), addr)
	return p, src
}

// QueryOne is the context-carrying single-key read: the error is non-nil
// only when every endpoint failed to deliver any answer — a served "unknown
// address" (404) or cold shard (503) is a nil-error SourceNone.
func (c *Client) QueryOne(ctx context.Context, addr model.AddressID) (geo.Point, deploy.Source, error) {
	path := "/v1/locations/" + strconv.FormatInt(int64(addr), 10)
	status, data, err := c.call(ctx, routeLocation, http.MethodGet, path, nil)
	if err != nil {
		return geo.Point{}, deploy.SourceNone, err
	}
	switch status {
	case http.StatusOK:
		var loc api.Location
		if err := json.Unmarshal(data, &loc); err != nil {
			return geo.Point{}, deploy.SourceNone, fmt.Errorf("cluster: decode location: %w", err)
		}
		return geo.Point{X: loc.X, Y: loc.Y}, deploy.ParseSource(loc.Source), nil
	case http.StatusNotFound, http.StatusServiceUnavailable:
		return geo.Point{}, deploy.SourceNone, nil
	default:
		return geo.Point{}, deploy.SourceNone, apiError(status, data)
	}
}

// QueryBatchIdx answers the idx positions of addrs into out (ShardBackend),
// chunked to the wire's MaxBatchKeys bound. A cold remote shard (503)
// answers SourceNone for the whole chunk, like a cold local shard does.
func (c *Client) QueryBatchIdx(ctx context.Context, addrs []model.AddressID, idx []int32, out []deploy.BatchAnswer) error {
	n := len(addrs)
	if idx != nil {
		n = len(idx)
	}
	pos := func(j int) int {
		if idx == nil {
			return j
		}
		return int(idx[j])
	}
	req := api.BatchLocationsRequest{Addrs: make([]int64, 0, min(n, api.MaxBatchKeys))}
	for base := 0; base < n; base += api.MaxBatchKeys {
		end := min(base+api.MaxBatchKeys, n)
		req.Addrs = req.Addrs[:0]
		for j := base; j < end; j++ {
			req.Addrs = append(req.Addrs, int64(addrs[pos(j)]))
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		status, data, err := c.call(ctx, routeBatch, http.MethodPost, "/v1/locations:batch", body)
		if err != nil {
			return err
		}
		if status == http.StatusServiceUnavailable {
			for j := base; j < end; j++ {
				out[pos(j)] = deploy.BatchAnswer{Src: deploy.SourceNone}
			}
			continue
		}
		if status != http.StatusOK {
			return apiError(status, data)
		}
		var resp api.BatchLocationsResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return fmt.Errorf("cluster: decode batch response: %w", err)
		}
		if len(resp.Results) != end-base {
			return fmt.Errorf("cluster: batch answered %d of %d keys", len(resp.Results), end-base)
		}
		for k, res := range resp.Results {
			p := pos(base + k)
			if res.Location != nil {
				out[p] = deploy.BatchAnswer{
					Loc: geo.Point{X: res.Location.X, Y: res.Location.Y},
					Src: deploy.ParseSource(res.Location.Source),
				}
			} else {
				out[p] = deploy.BatchAnswer{Src: deploy.SourceNone}
			}
		}
	}
	return nil
}

// Ingest posts one partitioned window to EVERY endpoint of the shard — the
// owner and each replica — because a replica can only answer correctly after
// failover if it holds the same trips (ShardBackend). Each endpoint gets the
// full retry budget; endpoints that still fail are joined into the returned
// error. A remote backlog-full answer maps back to deploy.ErrBackpressure so
// sharded ingest keeps its sentinel semantics across the hop. Retrying a
// window after a partial failure re-applies it to the endpoints that already
// accepted — the same "retry the whole window" trade-off the in-process
// sharded ingest documents.
func (c *Client) Ingest(ctx context.Context, trips []model.Trip, addrs []model.AddressInfo, truth map[model.AddressID]geo.Point) error {
	req := api.IngestRequest{Trips: trips, Addresses: addrs}
	if len(truth) > 0 {
		req.Truth = make(map[string][2]float64, len(truth))
		for id, p := range truth {
			req.Truth[strconv.FormatInt(int64(id), 10)] = [2]float64{p.X, p.Y}
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var errs []error
	for _, ep := range c.endpoints {
		status, data, err := c.callEndpoint(ctx, routeIngest, http.MethodPost, "/v1/ingest", body, ep)
		if err == nil && status != http.StatusOK {
			err = apiError(status, data)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("cluster: ingest %s: %w", ep, err))
		}
	}
	return errors.Join(errs...)
}

// Reinfer retrains EVERY endpoint of the shard concurrently and blocks until
// each finished (ShardBackend's synchronous contract): replicas hold the
// same trips after replicated ingest, and retraining is deterministic, so
// owner and replicas converge to the same served state. A job already
// running on an endpoint (409) is adopted and polled like our own; ctx
// cancellation stops the polling but not the remote jobs.
func (c *Client) Reinfer(ctx context.Context) error {
	if len(c.endpoints) == 1 {
		return c.reinferEndpoint(ctx, c.endpoints[0])
	}
	errs := make([]error, len(c.endpoints))
	var wg sync.WaitGroup
	for i, ep := range c.endpoints {
		wg.Add(1)
		go func(i int, ep string) {
			defer wg.Done()
			errs[i] = c.reinferEndpoint(ctx, ep)
		}(i, ep)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// reinferEndpoint starts one endpoint's background re-inference job and
// polls it to completion.
func (c *Client) reinferEndpoint(ctx context.Context, ep string) error {
	status, data, err := c.callEndpoint(ctx, routeReinfer, http.MethodPost, "/v1/reinfer", nil, ep)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted && status != http.StatusConflict {
		return apiError(status, data)
	}
	t := time.NewTicker(pollInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		status, data, err := c.callEndpoint(ctx, routeReinfer, http.MethodGet, "/v1/reinfer", nil, ep)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return apiError(status, data)
		}
		var job api.JobStatus
		if err := json.Unmarshal(data, &job); err != nil {
			return fmt.Errorf("cluster: decode job status: %w", err)
		}
		switch job.State {
		case api.JobRunning:
		case api.JobDone:
			return nil
		case api.JobFailed:
			return fmt.Errorf("cluster: remote reinfer failed on %s: %s", ep, job.Error)
		default:
			return fmt.Errorf("cluster: unknown remote job state %q from %s", job.State, ep)
		}
	}
}

// Status fetches the shard's typed /v1/healthz summary (ShardBackend). An unreachable
// shard reports Failed with the transport error, never panics or blocks past
// the retry budget — Status has no error channel by design.
func (c *Client) Status() deploy.EngineStatus {
	status, data, err := c.call(context.Background(), routeHealthz, http.MethodGet, "/v1/healthz", nil)
	if err != nil {
		return deploy.EngineStatus{Failed: true, LastError: "backend unreachable: " + err.Error()}
	}
	var st deploy.EngineStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return deploy.EngineStatus{Failed: true, LastError: fmt.Sprintf("backend sent bad healthz (http %d): %v", status, err)}
	}
	return st
}

// WriteSnapshot streams the shard's /v1/snapshot to w (ShardBackend).
// Failover applies only until the first body byte lands in w; a download
// broken mid-stream is the caller's error to handle, like a local write.
func (c *Client) WriteSnapshot(w io.Writer) error {
	ctx, cancel := context.WithTimeout(context.Background(), snapshotTimeoutFactor*c.timeout)
	defer cancel()
	var lastErr error
	for round := 0; round < c.rounds; round++ {
		for i, ep := range c.endpoints {
			if round > 0 || i > 0 {
				rpcFailovers.Inc()
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep+"/v1/snapshot", nil)
			if err != nil {
				countRPC(routeSnapshot, err)
				return err
			}
			resp, err := c.hc.Do(req)
			if err != nil {
				lastErr = err
				continue
			}
			if resp.StatusCode != http.StatusOK {
				data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
				lastErr = apiError(resp.StatusCode, data)
				continue
			}
			_, err = io.Copy(w, resp.Body)
			resp.Body.Close()
			countRPC(routeSnapshot, err)
			return err
		}
	}
	countRPC(routeSnapshot, lastErr)
	return fmt.Errorf("cluster: snapshot download failed: %w", lastErr)
}

// statically assert the client implements the seam.
var _ ShardBackend = (*Client)(nil)
