package peer

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"dlinfma/internal/obs"
)

// QualityFamilies is the whitelist of model-quality metric families a
// cluster frontend re-exports from its peers. A frontend's own registry has
// these families too (its local engine is a router with no model), so peer
// values are re-rendered under new names — dlinfma_peer_* with a peer label
// — rather than merged into the local families: the Prometheus exposition
// format forbids emitting one family twice, and an operator scraping only
// the frontend still wants per-peer model quality, not a lossy blend.
var QualityFamilies = []string{
	"dlinfma_reinfer_churn_ratio",
	"dlinfma_reinfer_moved_distance_meters",
	"dlinfma_reinfer_confidence",
	"dlinfma_serving_low_confidence_addresses",
	"dlinfma_engine_low_confidence_queries_total",
}

// DefaultQualityInterval is the peer metrics polling cadence when
// QualityOptions leaves Interval zero. Model quality moves at re-inference
// cadence (minutes), so seconds of staleness is invisible.
const DefaultQualityInterval = 15 * time.Second

// QualityOptions configures a peer-quality poller.
type QualityOptions struct {
	// Peers are the base URLs whose /v1/metrics to poll (the same list the
	// frontend routes to). At least one is required.
	Peers []string
	// Interval between polling rounds (0 = DefaultQualityInterval).
	Interval time.Duration
	// Timeout bounds one peer's metrics fetch (0 = DefaultTimeout).
	Timeout time.Duration
	// HTTPClient replaces the default transport (tests inject httptest
	// clients). nil uses a plain client.
	HTTPClient *http.Client
	// Logger receives fetch warnings. nil drops them.
	Logger *obs.Logger
	// Registry is where the re-exported exposition registers (nil =
	// obs.Default). A registry accepts each exposer name once, so start at
	// most one poller per registry.
	Registry *obs.Registry
}

// QualityPoller periodically scrapes each peer's /v1/metrics, keeps the
// QualityFamilies whitelist, and re-renders those samples into the local
// registry's exposition as dlinfma_peer_* families with a peer label. Peers
// that fail a round keep their last good snapshot (the scrape that follows a
// peer restart refreshes it); peers that never answered contribute nothing.
type QualityPoller struct {
	// c scrapes through the backend client's one attempt, so a peer is
	// labelled by its trimmed URL.
	c        *Client
	interval time.Duration

	mu        sync.Mutex
	perPeer   map[string]map[string]*obs.Family // whitelisted families per peer
	lastErrs  map[string]error
	stop      chan struct{}
	done      chan struct{}
	stopOnce  sync.Once
	pollsOK   *obs.Counter
	pollsFail *obs.Counter
}

// StartQualityPoller registers the dlinfma_peer_* exposer and launches the
// polling loop. Stop tears the loop down; the exposer stays registered (a
// registry has no unregister) and keeps serving the last snapshots.
func StartQualityPoller(o QualityOptions) (*QualityPoller, error) {
	c, err := NewClient(ClientOptions{Endpoints: o.Peers, Timeout: o.Timeout, HTTPClient: o.HTTPClient, Logger: o.Logger})
	if err != nil {
		return nil, err
	}
	reg := o.Registry
	if reg == nil {
		reg = obs.Default
	}
	p := &QualityPoller{
		c:        c,
		interval: o.Interval,
		perPeer:  make(map[string]map[string]*obs.Family),
		lastErrs: make(map[string]error),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if p.interval <= 0 {
		p.interval = DefaultQualityInterval
	}
	pollVec := reg.CounterVec("dlinfma_cluster_quality_polls_total",
		"Peer /v1/metrics quality scrapes by outcome.", "outcome")
	p.pollsOK = pollVec.With("ok")
	p.pollsFail = pollVec.With("error")
	reg.Exposer("dlinfma_peer_quality", p.expose)
	go p.loop()
	return p, nil
}

// Stop ends the polling loop and waits for it to exit.
func (p *QualityPoller) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// loop polls immediately, then on the interval until stopped.
func (p *QualityPoller) loop() {
	defer close(p.done)
	p.pollAll()
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.pollAll()
		}
	}
}

// pollAll scrapes every peer once, sequentially — the peer count is small
// and the fetches are tiny text documents.
func (p *QualityPoller) pollAll() {
	for _, peer := range p.c.endpoints {
		fams, err := p.fetchPeer(peer)
		p.mu.Lock()
		if err != nil {
			p.lastErrs[peer] = err
			p.mu.Unlock()
			p.pollsFail.Inc()
			p.c.log.Warn("peer quality scrape failed", "peer", peer, "err", err)
			continue
		}
		p.lastErrs[peer] = nil
		p.perPeer[peer] = fams
		p.mu.Unlock()
		p.pollsOK.Inc()
	}
}

// fetchPeer downloads and parses one peer's /v1/metrics in one attempt (no
// retry: the next round is the retry) and keeps the whitelisted families.
func (p *QualityPoller) fetchPeer(peer string) (map[string]*obs.Family, error) {
	status, data, err := p.c.roundTrip(context.Background(), peer, routeMetrics, http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, apiError(status, data)
	}
	fams, err := obs.ParseExposition(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cluster: parse peer metrics: %w", err)
	}
	kept := make(map[string]*obs.Family, len(QualityFamilies))
	for _, name := range QualityFamilies {
		if f, ok := fams[name]; ok && len(f.Samples) > 0 {
			kept[name] = f
		}
	}
	return kept, nil
}

// writePeerLabels writes a sample's label set with the peer label prepended,
// remaining labels in sorted order for a deterministic exposition.
func writePeerLabels(buf *bytes.Buffer, peer string, labels map[string]string) {
	buf.WriteString(`{peer="` + escapeLabel(peer) + `"`)
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		buf.WriteString(`,` + k + `="` + escapeLabel(labels[k]) + `"`)
	}
	buf.WriteString("}")
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// expose re-renders the last snapshots into the local exposition: one
// dlinfma_peer_* family per whitelisted name — HELP/TYPE declared once, then
// every peer's samples with a peer label, peers in stable order. Sample names
// keep their family-relative suffix (_bucket/_sum/_count for histograms), so
// the renamed family is itself valid exposition.
func (p *QualityPoller) expose(w io.Writer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var buf bytes.Buffer
	for _, name := range QualityFamilies {
		renamed := "dlinfma_peer_" + strings.TrimPrefix(name, "dlinfma_")
		declared := false
		for _, peer := range p.c.endpoints {
			f, ok := p.perPeer[peer][name]
			if !ok {
				continue
			}
			if !declared {
				declared = true
				fmt.Fprintf(&buf, "# HELP %s Peer re-export: %s\n", renamed, f.Help)
				fmt.Fprintf(&buf, "# TYPE %s %s\n", renamed, f.Type)
			}
			for _, s := range f.Samples {
				buf.WriteString(renamed + strings.TrimPrefix(s.Name, name))
				writePeerLabels(&buf, peer, s.Labels)
				fmt.Fprintf(&buf, " %v\n", s.Value)
			}
		}
	}
	_, _ = w.Write(buf.Bytes())
}
