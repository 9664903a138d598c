package work

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"dlinfma/bench/internal/gen"
	"dlinfma/bench/internal/httpc"
	"dlinfma/bench/internal/proc"
	"dlinfma/internal/deploy/api"
)

// stream is the write side: NDJSON scan, stay-point extraction, WAL append
// and sharded routing, with no reads, then the crash recovery that replays
// what was acknowledged.
type stream struct {
	cfg    Config
	bursts []gen.Burst
	walGen int
	acked  int // trips acknowledged by the last drive
}

// The corpus is a fixed amount of work, not a fixed time: memory and
// recovery time grow with what was ingested, and a server that ingests
// faster must not be charged for having ingested more. Six repetitions of
// the DowBJ trips (about 93,000 fixes each) are streamed per 5 s of run
// length.
func streamReps(seconds int) int { return max(1, seconds*6/5) }

func newStream(cfg Config) (*stream, error) {
	bursts, err := gen.StreamCorpus(cfg.Seed, streamReps(cfg.Seconds))
	if err != nil {
		return nil, err
	}
	return &stream{cfg: cfg, bursts: bursts}, nil
}

func (s *stream) walDir() string {
	return filepath.Join(s.cfg.TmpDir, "wal-"+strconv.Itoa(s.walGen))
}

// reset gives the next server an empty log.
func (s *stream) reset() { s.walGen++ }

func (s *stream) args() []string {
	return []string{"-data", "", "-shards", "2", "-wal-dir", s.walDir(), "-wal-fsync", "interval"}
}

// ready: an empty engine answers /v1/healthz 503 with a body; that it
// answers is all a fresh server has to show.
func (s *stream) ready(st api.EngineStatus) bool { return st.Trips == 0 }

// recovered: every acknowledged trip is back and none is left half open.
func (s *stream) recovered(st api.EngineStatus) bool {
	return st.Trips == s.acked && st.OpenStreams == 0
}

func (s *stream) drive(child *proc.Child, scale float64, spans *spanSink) (*driven, error) {
	if err := os.MkdirAll(s.walDir(), 0o755); err != nil {
		return nil, err
	}
	bursts := s.bursts[:int(float64(len(s.bursts))*scale)]
	var next, acked atomic.Int64
	loop := closedLoop{
		conns: s.cfg.Conns,
		next: func(conn int, c *httpc.Conn, reqID string) (int, error) {
			i := int(next.Add(1)) - 1
			if i >= len(bursts) {
				return 0, errDone
			}
			b := bursts[i]
			status, body, err := c.Post("/v1/trajectories:stream", reqID, b.Body)
			if err != nil {
				return 0, err
			}
			want := fmt.Sprintf("{\"points\":%d,\"ends\":1}\n", b.Points)
			if status != 200 || string(body) != want {
				return 0, fmt.Errorf("burst %d: got %d %q, want 200 %q", i, status, body, want)
			}
			acked.Add(1)
			return b.Points, nil
		},
	}
	d, err := loop.run(child, spans)
	if err != nil {
		return nil, err
	}
	s.acked = int(acked.Load())
	if st, err := child.Status(); err != nil {
		d.fail(err)
	} else if !s.recovered(st) {
		d.fail(fmt.Errorf("server holds %d trips and %d open streams after %d acknowledged bursts",
			st.Trips, st.OpenStreams, s.acked))
	}
	return d, nil
}
