package pacer

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestStallShowsInRequestsDueDuringIt: a server that answers instantly
// except for one 200 ms stall. Timed from send, almost every request is
// fast: the few in flight are slow and the ones behind them wait unsent.
// Timed from the due instant, every request due during the stall shows it.
func TestStallShowsInRequestsDueDuringIt(t *testing.T) {
	const (
		rate    = 500.0
		workers = 2
		stall   = 200 * time.Millisecond
	)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n := served.Add(1); n == 100 || n == 101 { // one stall on every connection
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := srv.Client()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	samples := Run(ctx, rate, workers, func(worker, seq int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	})

	var delayed, late int
	var worst time.Duration
	for _, s := range samples {
		if s.Err != nil {
			t.Fatal(s.Err)
		}
		if s.Latency < s.Lateness {
			t.Fatalf("request %d: latency %v below its lateness %v", s.Seq, s.Latency, s.Lateness)
		}
		if s.Latency > stall/4 {
			delayed++
		}
		if s.Lateness > stall/4 {
			late++
		}
		worst = max(worst, s.Latency)
	}
	if len(samples) < int(rate*0.9) {
		t.Fatalf("%d requests in one second at %v/s", len(samples), rate)
	}
	// 100 requests come due during the stall; those due in its first three
	// quarters wait more than a quarter of it.
	if want := int(rate * stall.Seconds() / 2); delayed < want {
		t.Errorf("%d requests show the stall, want at least %d", delayed, want)
	}
	if worst < stall {
		t.Errorf("worst latency %v, want at least the stall of %v", worst, stall)
	}
	// Lateness separates the generator's share: the requests behind the two
	// stalled ones were sent late, and say so.
	if late < delayed-workers-5 {
		t.Errorf("%d requests report lateness, %d were delayed", late, delayed)
	}
}

// TestUniformSchedule: an unloaded run sends on time.
func TestUniformSchedule(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	samples := Run(ctx, 200, 2, func(int, int) error { return nil })
	if n := len(samples); n < 50 || n > 62 {
		t.Errorf("%d requests in 300 ms at 200/s, want about 60", n)
	}
	seen := map[int]bool{}
	for _, s := range samples {
		if seen[s.Seq] {
			t.Fatalf("request %d sent twice", s.Seq)
		}
		seen[s.Seq] = true
	}
}
