package work

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dlinfma/bench/internal/httpc"
	"dlinfma/bench/internal/proc"
	"dlinfma/bench/internal/stats"
	"dlinfma/bench/internal/tracesrv"
)

func procs() int { return runtime.NumCPU() }

// spanSink collects the client's spans of a traced run.
type spanSink struct {
	mu    sync.Mutex
	spans []tracesrv.Span
}

// add records the client span of a sampled request.
func (s *spanSink) add(reqID string, start, end time.Time) {
	if s == nil || !tracesrv.Sampled(reqID) {
		return
	}
	s.mu.Lock()
	s.spans = append(s.spans, tracesrv.Span{Name: "client", ID: reqID, Req: reqID,
		Start: start.UnixNano(), End: end.UnixNano()})
	s.mu.Unlock()
}

// reqID builds "<prefix><conn>-<seq>"; the trailing sequence number is what
// the 1-in-16 sampling rule reads.
func reqID(buf []byte, prefix string, conn, seq int) []byte {
	buf = append(buf[:0], prefix...)
	buf = strconv.AppendInt(buf, int64(conn), 10)
	buf = append(buf, '-')
	return strconv.AppendInt(buf, int64(seq), 10)
}

// closedLoop is conns connections that each send their next request when
// the previous one has been answered.
type closedLoop struct {
	conns int
	warm  time.Duration // driven but not measured
	// window is the measured time; 0 runs until next reports no more work.
	window time.Duration
	// next performs one request on c and returns the operations it
	// acknowledged, or errDone once the work is used up. A wrong answer is
	// an error.
	next func(conn int, c *httpc.Conn, reqID string) (ops int, err error)
}

// errDone ends a connection's loop: there is no more work to send.
var errDone = errors.New("work: no more work")

// sliceLen is the length of the slices throughput and CPU per operation are
// taken over; the reported value is the median slice, which a one-off stall
// of the box does not move.
const sliceLen = time.Second

// run drives child and measures it.
func (l closedLoop) run(child *proc.Child, spans *spanSink) (*driven, error) {
	var (
		d         driven
		mu        sync.Mutex // guards d.fail
		attempted atomic.Int64
		ops       atomic.Int64
		stop      atomic.Bool
		wg        sync.WaitGroup
	)
	start := time.Now()
	measureFrom := start.Add(l.warm)
	conns := make([]*httpc.Conn, l.conns)
	for i := range conns {
		c, err := httpc.Dial(child.Addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		conns[i] = c
	}
	lats := make([][]int64, l.conns)
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var idBuf []byte
			for seq := 0; !stop.Load(); seq++ {
				idBuf = reqID(idBuf, "c", i, seq)
				id := string(idBuf)
				t0 := time.Now()
				n, err := l.next(i, conns[i], id)
				t1 := time.Now()
				if err == errDone {
					return
				}
				attempted.Add(1)
				if err != nil {
					mu.Lock()
					d.fail(err)
					mu.Unlock()
					continue
				}
				spans.add(id, t0, t1)
				if !t0.Before(measureFrom) {
					lats[i] = append(lats[i], int64(t1.Sub(t0)))
					ops.Add(int64(n))
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// The sampler: server CPU and acknowledged operations at every slice
	// boundary of the measured window.
	time.Sleep(time.Until(measureFrom))
	type sample struct {
		at  time.Time
		ops int64
		cpu time.Duration
	}
	take := func() (sample, error) {
		cpu, err := child.CPU()
		return sample{at: time.Now(), ops: ops.Load(), cpu: cpu}, err
	}
	first, err := take()
	if err != nil {
		return nil, err
	}
	self0, err := proc.SelfCPU()
	if err != nil {
		return nil, err
	}
	samples := []sample{first}
	tick := time.NewTicker(sliceLen)
	defer tick.Stop()
sampling:
	for {
		select {
		case <-tick.C:
			s, err := take()
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
			if l.window > 0 && s.at.Sub(first.at) >= l.window {
				break sampling
			}
		case <-done:
			break sampling
		}
	}
	stop.Store(true)
	last, err := take()
	if err != nil {
		return nil, err
	}
	self1, err := proc.SelfCPU()
	if err != nil {
		return nil, err
	}
	<-done

	var thr, cpuPerOp []float64
	for i := 1; i < len(samples); i++ {
		n := samples[i].ops - samples[i-1].ops
		if n == 0 {
			continue
		}
		thr = append(thr, float64(n)/samples[i].at.Sub(samples[i-1].at).Seconds())
		cpuPerOp = append(cpuPerOp, float64(samples[i].cpu-samples[i-1].cpu)/float64(n))
	}
	wall := last.at.Sub(first.at)
	if len(thr) < 3 { // too short to slice: the whole window is the one slice
		n := last.ops - first.ops
		if n == 0 && d.failed == 0 {
			return nil, fmt.Errorf("work: no operation was attempted in %v", wall)
		}
		n = max(n, 1) // every operation failed: the failures are the result
		thr = []float64{float64(n) / wall.Seconds()}
		cpuPerOp = []float64{float64(last.cpu-first.cpu) / float64(n)}
	}
	d.throughput = stats.Median(thr)
	d.cpuPerOp = time.Duration(stats.Median(cpuPerOp))
	d.clientCPUShare = float64(self1-self0) / float64(wall) / float64(procs())
	d.attempted = int(attempted.Load())
	for _, l := range lats {
		d.lat = append(d.lat, l...)
	}
	stats.SortNS(d.lat)
	return &d, nil
}
