package work

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"dlinfma/bench/internal/gen"
	"dlinfma/bench/internal/httpc"
	"dlinfma/bench/internal/proc"
	"dlinfma/internal/deploy/api"
)

// lookup is the two read workloads over one frozen city-scale store:
// point_lookup, where the cost of a request is the request (net/http,
// middleware, encoding) and the store lookup is noise, and batch_lookup,
// where 512 keys share one request and decode, QueryBatch, map lookups and
// encode are what is left.
type lookup struct {
	cfg     Config
	batch   bool
	city    *gen.City
	snap    string
	perm    []int32
	batches []gen.Batch
}

// batchBodies is the number of distinct pre-built batch requests.
const batchBodies = 64

// warmUp lets connections open, the server's pools fill and its heap settle
// before timing starts.
var warmUp = time.Second

// citySize is the lookup workloads' store size; the package's tests shrink
// it and warmUp to run in seconds.
var citySize = gen.CityAddresses

func newLookup(cfg Config, batch bool) (*lookup, error) {
	l := &lookup{cfg: cfg, batch: batch, city: gen.NewCity(cfg.Seed, citySize)}
	l.snap = filepath.Join(cfg.TmpDir, "city.json")
	if err := os.WriteFile(l.snap, l.city.Doc(), 0o644); err != nil {
		return nil, err
	}
	if batch {
		l.batches = gen.Batches(cfg.Seed, batchBodies, l.city)
	} else {
		l.perm = gen.Perm(cfg.Seed, citySize)
	}
	return l, nil
}

func (l *lookup) args() []string {
	return []string{"-data", "", "-snapshot", l.snap, "-shards", "1"}
}

func (l *lookup) ready(st api.EngineStatus) bool {
	return st.Ready && st.Addresses == len(l.city.Addresses) && st.Inferred == len(l.city.Locations)
}

func (l *lookup) drive(child *proc.Child, scale float64, spans *spanSink) (*driven, error) {
	loop := closedLoop{
		conns:  l.cfg.Conns,
		warm:   warmUp,
		window: time.Duration(float64(l.cfg.Seconds) * scale * float64(time.Second)),
	}
	if l.batch {
		sent := make([]int, l.cfg.Conns)
		loop.next = func(conn int, c *httpc.Conn, reqID string) (int, error) {
			b := l.batches[(conn+sent[conn]*l.cfg.Conns)%len(l.batches)]
			sent[conn]++
			status, body, err := c.Post("/v1/locations:batch", reqID, b.Body)
			if err != nil {
				return 0, err
			}
			if status != 200 || !bytes.Equal(body, b.Want) {
				return 0, fmt.Errorf("batch %s: status %d, body differs from the generated store (%d bytes, want %d)",
					reqID, status, len(body), len(b.Want))
			}
			return gen.BatchKeys, nil
		}
	} else {
		keys := make([]*gen.Keys, l.cfg.Conns)
		for i := range keys {
			keys[i] = gen.NewKeys(l.cfg.Seed, i, l.perm)
		}
		path := make([][]byte, l.cfg.Conns)
		loop.next = func(conn int, c *httpc.Conn, reqID string) (int, error) {
			id, known := keys[conn].Next()
			path[conn] = strconv.AppendInt(append(path[conn][:0], "/v1/locations/"...), id, 10)
			status, body, err := c.Get(string(path[conn]), reqID)
			if err != nil {
				return 0, err
			}
			wantStatus, want := 404, gen.NotFoundBody(id)
			if known {
				loc, _ := l.city.Want(id)
				wantStatus, want = 200, gen.LocationBody(loc)
			}
			if status != wantStatus || !bytes.Equal(body, want) {
				return 0, fmt.Errorf("lookup %d: got %d %q, want %d %q", id, status, body, wantStatus, want)
			}
			return 1, nil
		}
	}
	return loop.run(child, spans)
}
