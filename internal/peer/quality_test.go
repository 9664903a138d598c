package peer_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dlinfma/internal/obs"
	"dlinfma/internal/peer"
)

// peerMetrics is a minimal /v1/metrics document carrying two whitelisted
// quality families (one gauge, one histogram) plus a family the poller must
// NOT re-export.
const peerMetrics = `# HELP dlinfma_reinfer_churn_ratio Fraction moved.
# TYPE dlinfma_reinfer_churn_ratio gauge
dlinfma_reinfer_churn_ratio{shard="0"} 0.25
# HELP dlinfma_reinfer_confidence Top-1 probability.
# TYPE dlinfma_reinfer_confidence histogram
dlinfma_reinfer_confidence_bucket{shard="0",le="0.5"} 1
dlinfma_reinfer_confidence_bucket{shard="0",le="+Inf"} 4
dlinfma_reinfer_confidence_sum{shard="0"} 3.1
dlinfma_reinfer_confidence_count{shard="0"} 4
# HELP dlinfma_engine_hot_swaps_total Not whitelisted.
# TYPE dlinfma_engine_hot_swaps_total counter
dlinfma_engine_hot_swaps_total 7
`

func servePeerMetrics(t *testing.T, body string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, body)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// waitPoll waits until the registry's exposition contains want (the poller
// scrapes asynchronously right after start).
func waitPoll(t *testing.T, reg *obs.Registry, want string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(buf.String(), want) {
			return buf.String()
		}
		if time.Now().After(deadline) {
			t.Fatalf("exposition never contained %q:\n%s", want, buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestQualityPollerReExportsPeers(t *testing.T) {
	peerA := servePeerMetrics(t, peerMetrics)
	peerB := servePeerMetrics(t, strings.ReplaceAll(peerMetrics, "0.25", "0.75"))
	reg := obs.NewRegistry()
	p, err := peer.StartQualityPoller(peer.QualityOptions{
		Peers:    []string{peerA.URL, peerB.URL},
		Interval: 10 * time.Millisecond,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	text := waitPoll(t, reg, `dlinfma_peer_reinfer_churn_ratio{peer="`+peerB.URL+`"`)

	// The whole exposition must stay parseable — renamed families declare
	// HELP/TYPE once even with two peers contributing samples.
	fams, err := obs.ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("frontend exposition unparseable: %v\n%s", err, text)
	}
	churn := fams["dlinfma_peer_reinfer_churn_ratio"]
	if churn == nil || churn.Type != "gauge" || len(churn.Samples) != 2 {
		t.Fatalf("re-exported churn family = %+v", churn)
	}
	byPeer := map[string]float64{}
	for _, s := range churn.Samples {
		if s.Labels["shard"] != "0" {
			t.Errorf("peer sample lost its original labels: %+v", s)
		}
		byPeer[s.Labels["peer"]] = s.Value
	}
	if byPeer[peerA.URL] != 0.25 || byPeer[peerB.URL] != 0.75 {
		t.Errorf("per-peer values = %v", byPeer)
	}
	conf := fams["dlinfma_peer_reinfer_confidence"]
	if conf == nil || conf.Type != "histogram" {
		t.Fatalf("re-exported confidence family = %+v", conf)
	}
	if strings.Contains(text, "dlinfma_peer_engine_hot_swaps_total") {
		t.Error("non-whitelisted family was re-exported")
	}
}

// TestQualityPollerKeepsLastGood pins the failure behavior: a peer that dies
// keeps serving its last snapshot instead of vanishing from the exposition.
func TestQualityPollerKeepsLastGood(t *testing.T) {
	srv := servePeerMetrics(t, peerMetrics)
	reg := obs.NewRegistry()
	p, err := peer.StartQualityPoller(peer.QualityOptions{
		Peers:    []string{srv.URL},
		Interval: 10 * time.Millisecond,
		Timeout:  200 * time.Millisecond,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	waitPoll(t, reg, "dlinfma_peer_reinfer_churn_ratio")

	srv.Close() // peer dies; snapshots must survive
	time.Sleep(50 * time.Millisecond)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dlinfma_peer_reinfer_churn_ratio") {
		t.Error("last good snapshot vanished after the peer died")
	}
	if !strings.Contains(buf.String(), `dlinfma_cluster_quality_polls_total{outcome="error"}`) {
		t.Error("failed scrape not counted")
	}
}
