// Package pacer is the benchmark's open-loop generator. Requests are due on
// a uniform schedule fixed before the run; each is timed from its due
// instant, not from when it was sent, so the wait a stalled server imposes
// on the requests behind the stall is counted, and how late the generator
// itself ran is reported beside the latencies.
package pacer

import (
	"context"
	"sync"
	"time"
)

// Sample is one paced request.
type Sample struct {
	Seq      int
	Latency  time.Duration // due instant -> last body byte
	Lateness time.Duration // due instant -> actually sent
	Err      error
}

// job is a request that has come due.
type job struct {
	seq int
	due time.Time
}

// Run sends requests at rate per second until ctx ends: request i is due at
// start + i/rate. workers goroutines, one connection each, take requests as
// they come due; do(worker, seq) performs one and returns when its last body
// byte is read. When every worker is busy, due requests queue and their
// latency grows by the wait. Run returns once every due request has ended.
func Run(ctx context.Context, rate float64, workers int, do func(worker, seq int) error) []Sample {
	interval := time.Duration(float64(time.Second) / rate)
	// A stall of a few seconds must queue, not block the schedule.
	due := make(chan job, int(rate*10)+workers)
	results := make([][]Sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range due {
				sent := time.Now()
				err := do(w, j.seq)
				results[w] = append(results[w], Sample{
					Seq: j.seq, Latency: time.Since(j.due), Lateness: sent.Sub(j.due), Err: err,
				})
			}
		}(w)
	}
	start := time.Now()
schedule:
	for seq := 0; ; seq++ {
		at := start.Add(time.Duration(seq) * interval)
		if d := time.Until(at); d > 0 {
			select {
			case <-ctx.Done():
				break schedule
			case <-time.After(d):
			}
		} else if ctx.Err() != nil {
			break schedule
		}
		due <- job{seq: seq, due: at}
	}
	close(due)
	wg.Wait()
	var all []Sample
	for _, r := range results {
		all = append(all, r...)
	}
	return all
}
