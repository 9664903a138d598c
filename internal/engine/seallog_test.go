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
	"dlinfma/internal/wal"
)

// sealCounts sums e's seals since its window log was opened, by how they
// were made.
func sealCounts(e *Engine) (replayed, clustered int) {
	for _, sh := range e.shards {
		sh.ev.sealer.Lock()
		if sl := sh.ev.seals; sl != nil {
			replayed += sl.replayed
			clustered += sl.clustered
		}
		sh.ev.sealer.Unlock()
	}
	return replayed, clustered
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
// written, and any payload the decoder accepts re-encodes to itself.
func FuzzSealRecord(f *testing.F) {
	f.Add(int64(1), uint8(3), sampleSealRecord()[1:])
	f.Add(int64(2), uint8(0), []byte{})
	f.Add(int64(3), uint8(9), bytes.Repeat([]byte{0xFF}, 64))
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

// sampleSealRecord is a seal record with merges of both kinds, ids of one
// to five uvarint bytes among them.
func sampleSealRecord() []byte {
	return appendSealRecord(nil, &sealRecord{
		key:     sealKey{shard: 1, shards: 3, precision: 6, cutoff: 40},
		ordinal: 17,
		dec: core.SealDecisions{Stays: 4, StaySum: 0xdeadbeef, PoolIDs: 300,
			Window: []cluster.Pair{{A: 0, B: 3}, {A: 4, B: 1}},
			Pool:   []cluster.Pair{{A: 127, B: 128}, {A: 1 << 20, B: 1<<31 - 1}}},
	})
}

// randomSealRecord builds a record of up to n merges of each kind, with the
// fields the decoder fills the way it fills them (nil for no merges).
func randomSealRecord(rng *rand.Rand, n int) *sealRecord {
	id := func() int32 { return rng.Int31() >> rng.Intn(31) }
	rec := &sealRecord{
		key:     sealKey{shard: int(rng.Uint32()), shards: int(rng.Uint32()), precision: int(rng.Uint32()), cutoff: rng.NormFloat64() * 100},
		ordinal: rng.Uint64(),
		dec:     core.SealDecisions{Stays: int(rng.Int31()), StaySum: rng.Uint64(), PoolIDs: int(rng.Int31())},
	}
	for _, pairs := range []*[]cluster.Pair{&rec.dec.Window, &rec.dec.Pool} {
		for j := rng.Intn(n + 1); j > 0; j-- {
			*pairs = append(*pairs, cluster.Pair{A: id(), B: id()})
		}
	}
	return rec
}

// TestSealRecordsReplayWhereverTheyLie: with every seal's record held back
// until the operation that cut its window has ended, and so written its
// window record, each seal record lands after that window record. A
// restart at the same shard count (one and three) still finds every one,
// replays every seal, clusters none, and holds the live engine's ingest
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
				replayed, clustered := sealCounts(twin)
				switch {
				case m == n && (clustered != 0 || replayed != made):
					t.Fatalf("restart at %d shards: %d seals replayed, %d clustered; the live engine made %d", m, replayed, clustered, made)
				case m != n && (replayed != 0 || clustered == 0):
					t.Fatalf("restart at %d shards of a log written at %d: %d seals replayed, %d clustered", m, n, replayed, clustered)
				case m == n:
					requireSameIngestState(t, live, twin)
				}
				twin.Close()
			}
		})
	}
}

// TestSealRecordThatDoesNotApplyFailsOpenWAL: a seal record whose key and
// guards match a restart's seal but whose merges do not apply — a pool
// merge of one id with itself — fails OpenWAL, naming the record's
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
		if len(rec.dec.Pool) > 0 {
			rec.dec.Pool[0].B = rec.dec.Pool[0].A
			ps[i], bad = appendSealRecord(nil, rec), i+1
			break
		}
	}
	if bad == 0 {
		t.Fatal("no seal record merged into the pool")
	}
	rewriteWindowLog(t, dir, ps)
	twin := New(streamTestConfig())
	defer twin.Close()
	twin.ss.maxStays = 4
	_, err := twin.OpenWAL(ctx, dir, wal.Options{Policy: wal.FsyncNever})
	want := fmt.Sprintf("window log record %d: shard 0's seal", bad)
	if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "with itself") {
		t.Fatalf("OpenWAL = %v, want a refusal naming %q", err, want)
	}
}
