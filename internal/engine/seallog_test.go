package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dlinfma/internal/cluster"
	"dlinfma/internal/core"
	"dlinfma/internal/deploy"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/shard"
	"dlinfma/internal/synth"
	"dlinfma/internal/wal"
)

// sealCounts sums e's seals since its window log was opened, by how they
// were made.
func sealCounts(e *Engine) (installed, clustered int) {
	for _, sh := range e.shards {
		sh.ev.sealer.Lock()
		if sl := sh.ev.seals; sl != nil {
			installed += sl.installed
			clustered += sl.clustered
		}
		sh.ev.sealer.Unlock()
	}
	return installed, clustered
}

func sealCountsSum(e *Engine) int {
	r, c := sealCounts(e)
	return r + c
}

// windowLogPayloads returns every record of the window log under dir.
func windowLogPayloads(t *testing.T, dir string) [][]byte {
	t.Helper()
	w, err := wal.Open(filepath.Join(dir, windowLogDir), wal.Options{Policy: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var out [][]byte
	if err := w.Replay(func(_ uint64, p []byte) error { out = append(out, bytes.Clone(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

// rewriteWindowLog replaces the window log under dir with one holding
// payloads, under sequences from 1 as the window log, never truncated,
// numbers them.
func rewriteWindowLog(t *testing.T, dir string, payloads [][]byte) {
	t.Helper()
	wdir := filepath.Join(dir, windowLogDir)
	if err := os.RemoveAll(wdir); err != nil {
		t.Fatal(err)
	}
	w, err := wal.Open(wdir, wal.Options{Policy: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// sealTail counts the seal records past the last window record of the
// window log under dir.
func sealTail(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	for _, p := range windowLogPayloads(t, dir) {
		if n++; p[0] == walTagWindow {
			n = 0
		}
	}
	return n
}

// dropSealTail drops the seal records past the last window record of the
// window log under dir: what a crash after their seals and before their
// records leaves.
func dropSealTail(t *testing.T, dir string) {
	t.Helper()
	ps := windowLogPayloads(t, dir)
	rewriteWindowLog(t, dir, ps[:len(ps)-sealTail(t, dir)])
}

// FuzzSealRecord holds the seal record codec to a round trip both ways: a
// record the writer builds from a seeded generator decodes to what was
// written, and any payload the decoder accepts re-encodes to itself. The
// seeds include counts past the payload, an id past MaxInt32 and trailing
// bytes, which the decoder must refuse.
func FuzzSealRecord(f *testing.F) {
	f.Add(int64(1), uint8(3), sampleSealRecord()[1:])
	f.Add(int64(2), uint8(0), []byte{})
	f.Add(int64(3), uint8(9), bytes.Repeat([]byte{0xFF}, 64))
	_, damaged := sealPayloads()
	for i, p := range damaged {
		f.Add(int64(4+i), uint8(i), p[min(1, len(p)):])
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint8, raw []byte) {
		want := randomSealRecord(rand.New(rand.NewSource(seed)), int(size%16))
		got, err := decodeSealRecord(appendSealRecord(nil, want))
		if err != nil {
			t.Fatalf("the writer's record does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\nwant %+v\ngot  %+v", want, got)
		}
		payload := append([]byte{walTagSeal}, raw...)
		if rec, err := decodeSealRecord(payload); err == nil {
			if again := appendSealRecord(nil, rec); !bytes.Equal(again, payload) {
				t.Fatalf("payload %x decodes to a record that encodes to %x", payload, again)
			}
		}
	})
}

// sampleSealRecord is a seal record with window clusters and pool items,
// ids of one to five uvarint bytes among them, the last id MaxInt32.
func sampleSealRecord() []byte {
	return appendSealRecord(nil, &sealRecord{
		key:     sealKey{shard: 1, shards: 3, precision: 6, cutoff: 40},
		ordinal: 17,
		res: core.SealResult{Stays: 4, StaySum: 0xdeadbeef, PoolIDs: 300,
			Window: []cluster.Cluster{
				{Centroid: geo.Point{X: 1.5, Y: -2}, Members: []int{0, 3}, Weight: 2},
				{Centroid: geo.Point{X: 9, Y: 9}, Members: []int{2, 1}, Weight: 2},
			},
			Pool: []cluster.Merged{
				{ID: 302, Cluster: cluster.Cluster{Centroid: geo.Point{X: 3, Y: 4}, Members: []int{127, 128}, Weight: 7}},
				{ID: 300 + 200, Cluster: cluster.Cluster{Centroid: geo.Point{X: -1, Y: 0}, Members: []int{1 << 20, 1<<31 - 1}, Weight: 1 << 16}},
			}},
	})
}

// randomSealRecord builds a record of up to n window clusters and pool
// items of up to n members each, with the fields the decoder fills the way
// it fills them (nil for none, a window cluster weighing its member count).
func randomSealRecord(rng *rand.Rand, n int) *sealRecord {
	id := func() int { return int(rng.Int31() >> rng.Intn(31)) }
	ids := func() []int {
		var out []int
		for j := rng.Intn(n + 1); j > 0; j-- {
			out = append(out, id())
		}
		return out
	}
	pt := func() geo.Point { return geo.Point{X: rng.NormFloat64() * 1e4, Y: rng.NormFloat64() * 1e4} }
	rec := &sealRecord{
		key:     sealKey{shard: int(rng.Uint32()), shards: int(rng.Uint32()), precision: int(rng.Uint32()), cutoff: rng.NormFloat64() * 100},
		ordinal: rng.Uint64(),
		res:     core.SealResult{Stays: int(rng.Int31()), StaySum: rng.Uint64(), PoolIDs: int(rng.Int31())},
	}
	res := &rec.res
	for j := rng.Intn(n + 1); j > 0; j-- {
		c := cluster.Cluster{Centroid: pt(), Members: ids()}
		c.Weight = float64(len(c.Members))
		res.Window = append(res.Window, c)
	}
	for j := rng.Intn(n + 1); j > 0; j-- {
		res.Pool = append(res.Pool, cluster.Merged{ID: res.PoolIDs + id(), Cluster: cluster.Cluster{Centroid: pt(), Members: ids(), Weight: float64(id())}})
	}
	return rec
}

// TestSealRecordsReplayWhereverTheyLie: with every seal's record held back
// until the operation that cut its window has ended, and so written its
// window record, each seal record lands after that window record. A
// restart at the same shard count (one and three) still finds every one,
// installs every seal, clusters none, and holds the live engine's ingest
// state; a restart under the other count finds none and clusters every
// seal.
func TestSealRecordsReplayWhereverTheyLie(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			live := newStreamTestEngine(t, n)
			defer live.Close()
			live.ss.maxStays = 4
			// Interval flushes every append, so the copies below see it.
			if _, err := live.OpenWAL(ctx, dir, wal.Options{Policy: wal.FsyncInterval}); err != nil {
				t.Fatal(err)
			}
			// An operation holds ingestMu until its window record is
			// written; every operation below is settled before the next
			// takes the lock.
			for _, sh := range live.shards {
				sh.ev.sealer.Lock()
				sh.ev.seals.beforeRecord = func() { live.withIngestLock(func() {}) }
				sh.ev.sealer.Unlock()
			}
			rng := rand.New(rand.NewSource(41))
			sites := []geo.Point{{X: 100, Y: 100}, {X: 400, Y: 100}, {X: 90000, Y: 90000}, {X: 700, Y: 900}}
			for i := 0; i < 8; i++ {
				tr := genTrip(rng, model.CourierID(i+1), float64(i)*3*86400, sites[i%4], sites[(i+1)%4], sites[(i+2)%4])
				ops := make([]deploy.StreamOp, 0, len(tr.Traj)+1)
				for _, p := range tr.Traj {
					ops = append(ops, deploy.StreamOp{Courier: tr.Courier, Pt: p})
				}
				for _, op := range append(ops, deploy.StreamOp{Courier: tr.Courier, End: true}) {
					if _, err := live.IngestBurst(ctx, []deploy.StreamOp{op}); err != nil {
						t.Fatal(err)
					}
					live.settle()
				}
			}
			_, made := sealCounts(live)
			if ps := windowLogPayloads(t, dir); made == 0 || len(ps) == 0 || ps[0][0] != walTagWindow {
				t.Fatalf("the live engine made %d seals; its window log holds %d records, and must start with a window record", made, len(ps))
			}
			for _, m := range []int{n, 4 - n} {
				twinDir := filepath.Join(t.TempDir(), "twin")
				copyDir(t, dir, twinDir)
				twin := newStreamTestEngine(t, m)
				twin.ss.maxStays = 4
				if _, err := twin.OpenWAL(ctx, twinDir, wal.Options{Policy: wal.FsyncNever}); err != nil {
					t.Fatal(err)
				}
				installed, clustered := sealCounts(twin)
				switch {
				case m == n && (clustered != 0 || installed != made):
					t.Fatalf("restart at %d shards: %d seals installed, %d clustered; the live engine made %d", m, installed, clustered, made)
				case m != n && (installed != 0 || clustered == 0):
					t.Fatalf("restart at %d shards of a log written at %d: %d seals installed, %d clustered", m, n, installed, clustered)
				case m == n:
					requireSameIngestState(t, live, twin)
				}
				twin.Close()
			}
		})
	}
}

// TestSealRecordThatDoesNotApplyFailsOpenWAL: a seal record whose key and
// guards match a restart's seal but that does not fit it — a pool item
// that takes in one id twice, a stay in two window clusters, a pool item
// whose weight is not its members' sum — fails OpenWAL, naming the record's
// sequence in the window log.
func TestSealRecordThatDoesNotApplyFailsOpenWAL(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	live := New(streamTestConfig())
	live.ss.maxStays = 4
	if _, err := live.OpenWAL(ctx, dir, wal.Options{Policy: wal.FsyncNever}); err != nil {
		t.Fatal(err)
	}
	streamWindows(t, live, 6)
	live.Close()

	for _, tc := range []struct {
		name, want string
		damage     func(res *core.SealResult) bool
	}{
		{"a pool item absorbing one id twice", "merged away", func(res *core.SealResult) bool {
			if len(res.Pool) == 0 {
				return false
			}
			m := &res.Pool[0].Members
			(*m)[1] = (*m)[0]
			return true
		}},
		{"a stay in two clusters", "in two clusters", func(res *core.SealResult) bool {
			if len(res.Window) == 0 {
				return false
			}
			m := &res.Window[0].Members
			(*m)[1] = (*m)[0]
			return true
		}},
		{"a pool item's weight off", "weighs", func(res *core.SealResult) bool {
			if len(res.Pool) == 0 {
				return false
			}
			res.Pool[0].Weight++
			return true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps := windowLogPayloads(t, dir)
			bad := 0
			for i, p := range ps {
				if p[0] != walTagSeal {
					continue
				}
				rec, err := decodeSealRecord(p)
				if err != nil {
					t.Fatal(err)
				}
				if tc.damage(&rec.res) {
					ps[i], bad = appendSealRecord(nil, rec), i+1
					break
				}
			}
			if bad == 0 {
				t.Fatal("no seal record to damage")
			}
			twinDir := filepath.Join(t.TempDir(), "twin")
			copyDir(t, dir, twinDir)
			rewriteWindowLog(t, twinDir, ps)
			twin := New(streamTestConfig())
			defer twin.Close()
			twin.ss.maxStays = 4
			_, err := twin.OpenWAL(ctx, twinDir, wal.Options{Policy: wal.FsyncNever})
			want := fmt.Sprintf("window log record %d: shard 0's seal", bad)
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("OpenWAL = %v, want a refusal naming %q and %q", err, want, tc.want)
			}
		})
	}
}

// TestRetiredSealRecordsAreClusteredOnce restarts on a copy of
// testdata/wal-0x04: the logs a build that wrote seal records as merge
// pairs (tag 0x04) left after IngestDataset of synth.Tiny at two shards,
// precision 7 and 3-day windows. The restart skips every 0x04 record and
// clusters every seal, then re-infers to the frozen stores of an engine fed
// the same dataset without logs; a second restart from its own logs
// installs every seal and clusters none.
func TestRetiredSealRecordsAreClusteredOnce(t *testing.T) {
	ctx := context.Background()
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	engineAt := func() *Engine {
		cfg := streamTestConfig()
		cfg.Core.PoolWindowSeconds = 3 * 86400
		r, err := shard.NewRouter(2, 7)
		if err != nil {
			t.Fatal(err)
		}
		e := NewSharded(cfg, r)
		t.Cleanup(e.Close)
		return e
	}
	dir := filepath.Join(t.TempDir(), "wal")
	copyDir(t, filepath.Join("testdata", "wal-0x04"), dir)
	retired := 0
	for _, p := range windowLogPayloads(t, dir) {
		if p[0] == walTagRetiredSeal {
			retired++
		} else if p[0] != walTagWindow {
			t.Fatalf("the old window log holds a record of tag %#02x", p[0])
		}
	}
	if retired == 0 {
		t.Fatal("the old window log holds no 0x04 seal record")
	}

	first := engineAt()
	rep, err := first.OpenWAL(ctx, dir, wal.Options{Policy: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SealsInstalled != 0 || rep.SealsClustered != retired {
		t.Fatalf("restart on the old logs: %d seals installed, %d clustered; the logs hold %d retired seal records", rep.SealsInstalled, rep.SealsClustered, retired)
	}
	ref := engineAt()
	if err := ref.IngestDataset(ctx, ds); err != nil {
		t.Fatal(err)
	}
	requireSameIngestState(t, ref, first)
	for _, e := range []*Engine{ref, first} {
		if err := e.Reinfer(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := range ref.shards {
		want, got := ref.shards[i].frozen(), first.shards[i].frozen()
		if want == nil || want.Inferred() == 0 {
			t.Fatalf("shard %d inferred nothing", i)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("shard %d's frozen store differs from the one an engine fed the dataset publishes", i)
		}
	}
	first.Close()

	second := engineAt()
	if rep, err = second.OpenWAL(ctx, dir, wal.Options{Policy: wal.FsyncNever}); err != nil {
		t.Fatal(err)
	}
	if rep.SealsInstalled != retired || rep.SealsClustered != 0 {
		t.Fatalf("second restart: %d seals installed, %d clustered, want %d and 0", rep.SealsInstalled, rep.SealsClustered, retired)
	}
	requireSameIngestState(t, ref, second)
}
