package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dlinfma/internal/deploy"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/shard"
	"dlinfma/internal/traj"
	"dlinfma/internal/wal"
)

// burstScript is the op sequence the burst tests share, a function of
// nothing: four couriers' trips over two far-apart regions, interleaved by
// fix time. Courier 1 ends both of its trips explicitly (the first one
// twice); courier 2's second trip starts past the trip gap, so the gap rule
// closes its first; courier 3 streams a trip sixteen days later, past the
// pool-window grid, and ends it; courier 4 is left open. Courier 9 sends an
// end marker without ever having sent a fix. With newBurstTestEngine's
// lowered stay bound the stay-count rule seals windows too.
func burstScript() []deploy.StreamOp {
	rng := rand.New(rand.NewSource(41))
	a, b := geo.Point{X: 50, Y: 50}, geo.Point{X: 90000, Y: 90000}
	type timed struct {
		t  float64
		op deploy.StreamOp
	}
	var all []timed
	add := func(tr model.Trip, end bool) {
		for _, p := range tr.Traj {
			all = append(all, timed{p.T, deploy.StreamOp{Courier: tr.Courier, Pt: p}})
		}
		if end {
			all = append(all, timed{tr.EndT + 1, deploy.StreamOp{Courier: tr.Courier, End: true}})
		}
	}
	all = append(all, timed{0, deploy.StreamOp{Courier: 9, End: true}})
	t11 := genTrip(rng, 1, 0, a, b)
	add(t11, true)
	all = append(all, timed{t11.EndT + 2, deploy.StreamOp{Courier: 1, End: true}})
	add(genTrip(rng, 1, 5000, b), true)
	t21 := genTrip(rng, 2, 40, b, a)
	add(t21, false)
	add(genTrip(rng, 2, t21.EndT+700, a), true)
	add(genTrip(rng, 3, 16*86400, a, b), true)
	add(genTrip(rng, 4, 16*86400+30, b), false)
	sort.SliceStable(all, func(i, j int) bool { return all[i].t < all[j].t })
	ops := make([]deploy.StreamOp, len(all))
	for i := range all {
		ops[i] = all[i].op
	}
	return ops
}

// newBurstTestEngine is newStreamTestEngine with a stay-count window bound
// low enough for burstScript to hit.
func newBurstTestEngine(t *testing.T, n int) *Engine {
	t.Helper()
	cfg := streamTestConfig()
	var e *Engine
	if n == 1 {
		e = New(cfg)
	} else {
		r, err := shard.NewRouter(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		e = NewSharded(cfg, r)
	}
	e.ss.maxStays = 3
	return e
}

// feedPerOp applies ops through the per-op methods.
func feedPerOp(t *testing.T, e *Engine, ops []deploy.StreamOp) {
	t.Helper()
	ctx := context.Background()
	for _, op := range ops {
		var err error
		if op.End {
			err = e.CloseStream(ctx, op.Courier)
		} else {
			err = e.IngestPoint(ctx, op.Courier, op.Pt)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// feedBursts applies ops through IngestBurst, cut where next says (it
// returns the length of the next burst given how many ops remain).
func feedBursts(t *testing.T, e *Engine, ops []deploy.StreamOp, next func(remaining int) int) {
	t.Helper()
	for len(ops) > 0 {
		n := next(len(ops))
		applied, err := e.IngestBurst(context.Background(), ops[:n])
		if err != nil || applied != n {
			t.Fatalf("IngestBurst applied %d of %d: %v", applied, n, err)
		}
		ops = ops[n:]
	}
}

// openBurstWAL opens a log that reaches the kernel on every append, so the
// segment files can be read back without closing it.
func openBurstWAL(t *testing.T, dir string) *wal.WAL {
	t.Helper()
	w, err := wal.Open(dir, wal.Options{Policy: wal.FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// readSegments returns the log's files, name → bytes.
func readSegments(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// replayInto recovers a fresh engine from the log in dir, as a restart after
// a kill would.
func replayInto(t *testing.T, n int, dir string) (*Engine, int) {
	t.Helper()
	e := newBurstTestEngine(t, n)
	t.Cleanup(e.Close)
	records, err := e.ReplayWAL(context.Background(), openBurstWAL(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	return e, records
}

// TestBurstPathIsPerOpPath: the same op sequence fed one op at a time, as
// one burst, and in random chunkings leaves equal engines and byte-identical
// logs, and a kill-and-replay of each log equals the engine that wrote it.
func TestBurstPathIsPerOpPath(t *testing.T) {
	ops := burstScript()
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			windowsBefore := ingestWindows.Value()
			refDir := t.TempDir()
			ref := newBurstTestEngine(t, n)
			defer ref.Close()
			refWAL := openBurstWAL(t, refDir)
			ref.AttachWAL(refWAL)
			feedPerOp(t, ref, ops)
			refSegs := readSegments(t, refDir)

			// The script exercises what it says: both window-seal rules
			// fired, one stream is still open, and every op — the two stray
			// end markers too — is one record of the log.
			if got := ingestWindows.Value() - windowsBefore; got < 2 || ref.ss.winEnd < 16*86400 {
				t.Fatalf("script sealed %d windows with the grid at %.0f s, want the stay-count rule and the time rule both firing",
					got, ref.ss.winEnd)
			}
			if ref.ss.open() != 1 {
				t.Fatalf("open streams = %d, want 1", ref.ss.open())
			}
			if got, want := refWAL.LastSeq(), uint64(len(ops)); got != want {
				t.Fatalf("log holds %d records, want %d (one per op)", got, want)
			}
			recovered, records := replayInto(t, n, refDir)
			if records != len(ops) {
				t.Fatalf("replayed %d records, want %d", records, len(ops))
			}
			requireSameIngestState(t, ref, recovered)

			rng := rand.New(rand.NewSource(int64(n)))
			chunkings := map[string]func(int) int{
				"one burst": func(remaining int) int { return remaining },
				"pairs":     func(remaining int) int { return min(2, remaining) },
				"random a":  func(remaining int) int { return 1 + rng.Intn(min(40, remaining)) },
				"random b":  func(remaining int) int { return 1 + rng.Intn(min(7, remaining)) },
			}
			for name, next := range chunkings {
				dir := t.TempDir()
				e := newBurstTestEngine(t, n)
				defer e.Close()
				e.AttachWAL(openBurstWAL(t, dir))
				feedBursts(t, e, ops, next)
				requireSameIngestState(t, ref, e)
				segs := readSegments(t, dir)
				if len(segs) != len(refSegs) {
					t.Fatalf("%s: %d segment files, per-op wrote %d", name, len(segs), len(refSegs))
				}
				for file, want := range refSegs {
					if !bytes.Equal(segs[file], want) {
						t.Fatalf("%s: segment %s differs from the per-op log (%d vs %d bytes)", name, file, len(segs[file]), len(want))
					}
				}
				recovered, _ := replayInto(t, n, dir)
				requireSameIngestState(t, e, recovered)
			}
		})
	}
}

// TestEveryAcknowledgedPrefixReplays: op k of a stream is record k of the
// log, stray end markers included, so the log of the first k ops — a byte
// prefix of the whole log — holds k records and replays to the state the
// engine that wrote it had after op k. A crash after any acknowledgement
// loses nothing acknowledged.
func TestEveryAcknowledgedPrefixReplays(t *testing.T) {
	ops := burstScript()
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			fullDir := t.TempDir()
			full := newBurstTestEngine(t, n)
			defer full.Close()
			full.AttachWAL(openBurstWAL(t, fullDir))
			feedPerOp(t, full, ops)
			fullSegs := readSegments(t, fullDir)
			for k := 0; k <= len(ops); k++ {
				dir := t.TempDir()
				e := newBurstTestEngine(t, n)
				w := openBurstWAL(t, dir)
				e.AttachWAL(w)
				feedPerOp(t, e, ops[:k])
				if got := w.LastSeq(); got != uint64(k) {
					t.Fatalf("after %d ops the log holds %d records", k, got)
				}
				for file, b := range readSegments(t, dir) {
					if !bytes.HasPrefix(fullSegs[file], b) {
						t.Fatalf("after %d ops segment %s is not a prefix of the whole log's", k, file)
					}
				}
				recovered, records := replayInto(t, n, dir)
				if records != k {
					t.Fatalf("the log of %d ops replayed %d records", k, records)
				}
				requireSameIngestState(t, e, recovered)
				e.Close()
			}
		})
	}
}

// TestPerOpIngestDoesNotAllocateABurst: IngestPoint and CloseStream are
// bursts of one through IngestBurst, and being so costs them no allocation —
// on a courier with an open stream and capacity to spare, a fix allocates
// nothing at all, logged or not.
func TestPerOpIngestDoesNotAllocateABurst(t *testing.T) {
	for _, logged := range []bool{false, true} {
		e := New(streamTestConfig())
		defer e.Close()
		if logged {
			e.AttachWAL(openBurstWAL(t, t.TempDir()))
		}
		ctx := context.Background()
		tm := 0.0
		fix := func() {
			tm++
			// Far-apart fixes: never a stay point, so the extractor keeps
			// nothing and the only growth is the trip's own fix slice.
			if err := e.IngestPoint(ctx, 7, traj.GPSPoint{P: geo.Point{X: tm * 1000}, T: tm}); err != nil {
				t.Fatal(err)
			}
		}
		fix()
		cs := e.ss.streams[7]
		cs.pts = append(make(traj.Trajectory, 0, 4096), cs.pts...)
		if got := testing.AllocsPerRun(200, fix); got != 0 {
			t.Errorf("logged=%v: IngestPoint allocates %.1f times per fix, want 0", logged, got)
		}
		if got := testing.AllocsPerRun(200, func() {
			if err := e.CloseStream(ctx, 99); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("logged=%v: a no-op CloseStream allocates %.1f times, want 0", logged, got)
		}
	}
}

// TestMalformedWALRecordRefusesReplay: a tag no build wrote, a binary record
// of the wrong width, a JSON record of any kind — the batch window, pt and
// end records earlier builds wrote among them, so a log that old is
// replayed by the build that wrote it and snapshotted — and a window or
// seal record, whole (they belong in the window log) or cut short, stop replay
// with the record's sequence in the error instead of being skipped or
// misread.
func TestMalformedWALRecordRefusesReplay(t *testing.T) {
	point := appendWALOp(nil, &deploy.StreamOp{Courier: 3, Pt: traj.GPSPoint{P: geo.Point{X: 1, Y: 2}, T: 3}})
	end := appendWALOp(nil, &deploy.StreamOp{Courier: 3, End: true})
	for name, bad := range map[string][]byte{
		"unknown tag":       {0x7f, 1, 2, 3, 4},
		"short point":       point[:len(point)-1],
		"long point":        append(append([]byte{}, point...), 0),
		"short end":         end[:len(end)-1],
		"long end":          append(append([]byte{}, end...), 0),
		"empty":             {},
		"unknown JSON":      []byte(`{"k":"waybill","c":3}`),
		"JSON batch window": legacyBatchRecord,
		"JSON point":        []byte(`{"k":"pt","c":3,"x":1,"y":2,"t":3}`),
		"JSON end":          []byte(`{"k":"end","c":3}`),
		"not JSON at all":   []byte(`{"k":`),
		"tag zero":          {0x00},
		"tag only (point)":  {walTagPoint},
		"window record":     sampleWindowRecord(),
		"short window":      sampleWindowRecord()[:len(sampleWindowRecord())-1],
		"tag only (window)": {walTagWindow},
		"seal record":       sampleSealRecord(),
		"short seal":        sampleSealRecord()[:len(sampleSealRecord())-1],
		"retired seal":      retiredSealRecord,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w := openBurstWAL(t, dir)
			for _, payload := range [][]byte{point, point, bad, end} {
				if _, err := w.Append(payload); err != nil {
					t.Fatal(err)
				}
			}
			e := New(streamTestConfig())
			defer e.Close()
			n, err := e.ReplayWAL(context.Background(), w)
			if err == nil || !strings.Contains(err.Error(), "wal record 3:") {
				t.Fatalf("replay error = %v, want one naming record 3", err)
			}
			if n != 2 {
				t.Fatalf("replayed %d records before refusing, want 2", n)
			}
		})
	}
}

// TestBurstBackpressure pins the per-burst rule: the backlog is read once,
// under the lock, before anything is logged. At the bound a burst is cut at
// its first fix — leading end markers still pass, nothing at or past the fix
// is logged or applied — while a burst admitted below the bound runs to its
// end, so the backlog overshoots by the trips that one burst closes.
func TestBurstBackpressure(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cfg := streamTestConfig()
	cfg.MaxPendingTrips = 2
	e := New(cfg)
	defer e.Close()
	w := openBurstWAL(t, t.TempDir())
	e.AttachWAL(w)
	ctx := context.Background()
	site := geo.Point{X: 80, Y: 80}

	// Courier 4 opens a stream while there is room, and keeps it open.
	for _, p := range genTrip(rng, 4, 100, site).Traj {
		if err := e.IngestPoint(ctx, 4, p); err != nil {
			t.Fatal(err)
		}
	}
	// One burst that closes three trips, admitted with an empty backlog.
	var burst []deploy.StreamOp
	for c := model.CourierID(1); c <= 3; c++ {
		for _, p := range genTrip(rng, c, float64(c)*1000, site).Traj {
			burst = append(burst, deploy.StreamOp{Courier: c, Pt: p})
		}
		burst = append(burst, deploy.StreamOp{Courier: c, End: true})
	}
	if applied, err := e.IngestBurst(ctx, burst); err != nil || applied != len(burst) {
		t.Fatalf("burst below the bound: applied %d of %d, %v", applied, len(burst), err)
	}
	if got := e.Status().PendingTrips; got != 3 {
		t.Fatalf("PendingTrips = %d, want 3: the bound of 2 plus the overshoot of one burst", got)
	}

	rejects, logged := backpressureRejects.Value(), w.LastSeq()
	applied, err := e.IngestBurst(ctx, []deploy.StreamOp{
		{Courier: 5, Pt: traj.GPSPoint{P: site, T: 20000}},
		{Courier: 4, End: true},
	})
	if !errors.Is(err, deploy.ErrBackpressure) || applied != 0 {
		t.Fatalf("burst at the bound: applied %d, %v; want 0, ErrBackpressure", applied, err)
	}
	if w.LastSeq() != logged || e.ss.open() != 1 || e.Status().PendingTrips != 3 {
		t.Fatalf("rejected burst left a trace: log %d -> %d, open %d, pending %d",
			logged, w.LastSeq(), e.ss.open(), e.Status().PendingTrips)
	}
	applied, err = e.IngestBurst(ctx, []deploy.StreamOp{
		{Courier: 4, End: true},
		{Courier: 5, Pt: traj.GPSPoint{P: site, T: 20000}},
		{Courier: 5, End: true},
	})
	if !errors.Is(err, deploy.ErrBackpressure) || applied != 1 {
		t.Fatalf("end marker then fix at the bound: applied %d, %v; want 1, ErrBackpressure", applied, err)
	}
	if w.LastSeq() != logged+1 || e.ss.open() != 0 || e.Status().PendingTrips != 4 {
		t.Fatalf("the end marker did not pass alone: log %d -> %d, open %d, pending %d",
			logged, w.LastSeq(), e.ss.open(), e.Status().PendingTrips)
	}
	if got := backpressureRejects.Value() - rejects; got != 2 {
		t.Fatalf("backpressure rejections counter moved by %d, want 2 (one per rejected burst)", got)
	}
}

// TestRemoteEngineRefusesBursts: the remote topology answers IngestBurst
// with the error its per-op methods give.
func TestRemoteEngineRefusesBursts(t *testing.T) {
	e := &Engine{remote: true}
	if _, err := e.IngestBurst(context.Background(), []deploy.StreamOp{{Courier: 1}}); !errors.Is(err, errRemoteStreaming) {
		t.Fatalf("IngestBurst on a remote engine: %v", err)
	}
	if err := e.IngestPoint(context.Background(), 1, traj.GPSPoint{}); !errors.Is(err, errRemoteStreaming) {
		t.Fatalf("IngestPoint on a remote engine: %v", err)
	}
}
