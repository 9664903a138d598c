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
	routeMetrics  = "/v1/metrics"
)

// DefaultTimeout bounds one attempt of a backend RPC when ClientOptions
// leaves Timeout zero. Reads are sub-millisecond server-side, so five seconds
// is network headroom, not a latency target.
const DefaultTimeout = 5 * time.Second

// pollInterval is how often Reinfer polls the remote job.
const pollInterval = 250 * time.Millisecond

// snapshotTimeoutFactor scales the per-attempt timeout for snapshot downloads,
// which stream megabytes where every other route moves kilobytes.
const snapshotTimeoutFactor = 12

// ClientOptions configures an HTTP shard backend.
type ClientOptions struct {
	// Endpoints are the base URLs serving the shard, the ring owner first and
	// its replicas after. A read walks the list in order until one
	// endpoint answers; a write drives every endpoint on its own. At least
	// one endpoint is required.
	Endpoints []string
	// Timeout bounds each attempt (0 = DefaultTimeout; a snapshot attempt
	// gets snapshotTimeoutFactor times it). Reinfer applies it per poll, not
	// to the whole retrain.
	Timeout time.Duration
	// Retries is how many extra passes over the endpoint list a failing call
	// makes after the first (<0 = 0). The total attempt budget per call is
	// (1+Retries) * len(Endpoints) for a read, 1+Retries per endpoint for a
	// write.
	Retries int
	// HTTPClient, when set, replaces the default transport (tests inject
	// httptest clients here). Per-attempt timeouts still come from Timeout.
	HTTPClient *http.Client
	// Logger receives failover warnings. nil drops them.
	Logger *obs.Logger
}

// Client is the HTTP ShardBackend: every operation of the seam mapped onto
// the existing /v1 wire surface through one attempt (roundTrip) and one
// retry loop (call), with per-attempt timeouts, bounded retry across the
// owner-then-replicas endpoint list, and W3C traceparent plus X-Request-ID
// propagation on every hop so the remote server span parents under the
// caller's trace.
type Client struct {
	endpoints []string
	timeout   time.Duration
	rounds    int
	hc        *http.Client
	log       *obs.Logger
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

// roundTrip performs one attempt against one endpoint: per-attempt timeout
// (snapshotTimeoutFactor times it for a snapshot), its own client span (so
// the remote server span parents under this exact hop), and trace/correlation
// header injection. The whole body is read before it returns, so a response
// cut mid-body is a failed attempt.
func (c *Client) roundTrip(ctx context.Context, endpoint, route, method, path string, body []byte) (int, []byte, error) {
	ctx, sp := trace.Start(ctx, "cluster.rpc")
	sp.SetAttr("endpoint", endpoint)
	sp.SetAttr("path", path)
	defer sp.End()
	timeout := c.timeout
	if route == routeSnapshot {
		timeout *= snapshotTimeoutFactor
	}
	cctx, cancel := context.WithTimeout(ctx, timeout)
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

// call walks eps (the owner first) up to the retry budget and returns the
// first delivered response. Transport failures and 5xx statuses other than
// 503 fail over to the next attempt; everything else — including 503, which
// is a meaningful engine_not_ready answer — is the caller's to interpret.
// Reads pass every endpoint; the replicated writes pass one at a time, so
// each replica is driven on its own with the same budget.
func (c *Client) call(ctx context.Context, route, method, path string, body []byte, eps []string) (int, []byte, error) {
	var lastErr error
	for round := 0; round < c.rounds; round++ {
		for i, ep := range eps {
			if err := ctx.Err(); err != nil {
				countRPC(route, err)
				return 0, nil, err
			}
			retry := round > 0 || i > 0
			if retry {
				rpcFailovers.Inc()
			}
			status, data, err := c.roundTrip(ctx, ep, route, method, path, body)
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
			if retry {
				frontendFailovers.Inc()
			}
			countRPC(route, nil)
			return status, data, nil
		}
	}
	frontendPeerErrors.Inc()
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

// Query answers one address (ShardBackend) under ctx and the client's own
// timeout. The error is non-nil only when every endpoint failed to deliver
// any answer — a served "unknown address" (404) or cold shard (503) is a
// nil-error SourceNone.
func (c *Client) Query(ctx context.Context, addr model.AddressID) (geo.Point, deploy.Source, error) {
	path := "/v1/locations/" + strconv.FormatInt(int64(addr), 10)
	status, data, err := c.call(ctx, routeLocation, http.MethodGet, path, nil, c.endpoints)
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
		status, data, err := c.call(ctx, routeBatch, http.MethodPost, "/v1/locations:batch", body, c.endpoints)
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
// failover if it holds the same trips (Ingester). Each endpoint gets the
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
	for i, ep := range c.endpoints {
		status, data, err := c.call(ctx, routeIngest, http.MethodPost, "/v1/ingest", body, c.endpoints[i:i+1])
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
	errs := make([]error, len(c.endpoints))
	var wg sync.WaitGroup
	for i := range c.endpoints {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.reinferEndpoint(ctx, c.endpoints[i:i+1])
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// reinferEndpoint starts the background re-inference job of ep's one
// endpoint and polls it to completion.
func (c *Client) reinferEndpoint(ctx context.Context, ep []string) error {
	status, data, err := c.call(ctx, routeReinfer, http.MethodPost, "/v1/reinfer", nil, ep)
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
		status, data, err := c.call(ctx, routeReinfer, http.MethodGet, "/v1/reinfer", nil, ep)
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
			return fmt.Errorf("cluster: remote reinfer failed on %s: %s", ep[0], job.Error)
		default:
			return fmt.Errorf("cluster: unknown remote job state %q from %s", job.State, ep[0])
		}
	}
}

// Status fetches the shard's typed /v1/healthz summary (ShardBackend). An unreachable
// shard reports Failed with the transport error, never panics or blocks past
// the retry budget — Status has no error channel by design.
func (c *Client) Status() api.EngineStatus {
	status, data, err := c.call(context.Background(), routeHealthz, http.MethodGet, "/v1/healthz", nil, c.endpoints)
	if err != nil {
		return api.EngineStatus{Failed: true, LastError: "backend unreachable: " + err.Error()}
	}
	var st api.EngineStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return api.EngineStatus{Failed: true, LastError: fmt.Sprintf("backend sent bad healthz (http %d): %v", status, err)}
	}
	return st
}

// WriteSnapshot downloads the shard's /v1/snapshot and writes it to w
// (ShardBackend). Nothing reaches w until one endpoint has delivered the
// whole body, so a download broken mid-body fails over like any attempt. A
// 503 ends the call as it does for a lookup, wrapping ErrNotReady.
func (c *Client) WriteSnapshot(w io.Writer) error {
	status, data, err := c.call(context.Background(), routeSnapshot, http.MethodGet, "/v1/snapshot", nil, c.endpoints)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return apiError(status, data)
	}
	_, err = w.Write(data)
	return err
}

// statically assert the client implements the seam.
var (
	_ ShardBackend = (*Client)(nil)
	_ Ingester     = (*Client)(nil)
)
