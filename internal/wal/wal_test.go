package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dlinfma/internal/obs"
)

// collect replays w and returns every payload (copied) in order.
func collect(t *testing.T, w *WAL) [][]byte {
	t.Helper()
	var out [][]byte
	err := w.Replay(func(seq uint64, p []byte) error {
		if want := uint64(len(out) + 1); seq != want {
			t.Fatalf("replay seq %d, want %d", seq, want)
		}
		out = append(out, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		seq, err := w.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append seq %d, want %d", seq, i+1)
		}
		want = append(want, p)
	}
	got := collect(t, w)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: sequence continues, records survive.
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.LastSeq() != 100 {
		t.Fatalf("LastSeq after reopen = %d, want 100", w2.LastSeq())
	}
	if seq, err := w2.Append([]byte("after")); err != nil || seq != 101 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
	if got := collect(t, w2); len(got) != 101 {
		t.Fatalf("replayed %d records after reopen, want 101", len(got))
	}
}

// TestRotation: records rotate across segments and replay in order, and a
// reopened log continues the sequence from the segment names. Logs whose
// oldest segments are gone — what builds that truncated after a snapshot
// left behind — stay valid input: numbering and replay start where the
// surviving segments do.
func TestRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record larger than 64 bytes forces a rotation.
	w, err := Open(dir, Options{SegmentBytes: 64, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 10; i++ {
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if n := segments(w); n < 5 {
		t.Fatalf("expected many segments, got %d", n)
	}
	if got := collect(t, w); len(got) != 10 {
		t.Fatalf("replayed %d, want 10", len(got))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Remove the oldest segments whose every record is <= 5, as a
	// truncating build did: each file ends where the next one begins.
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(names); i++ {
		next, ok := parseSegmentName(filepath.Base(names[i+1]))
		if !ok {
			t.Fatalf("bad segment name %s", names[i+1])
		}
		if next-1 > 5 {
			break
		}
		if err := os.Remove(names[i]); err != nil {
			t.Fatal(err)
		}
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.LastSeq() != 10 {
		t.Fatalf("LastSeq after reopen without the oldest segments = %d, want 10", w2.LastSeq())
	}
	var first uint64
	err = w2.Replay(func(seq uint64, p []byte) error {
		if first == 0 {
			first = seq
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first == 1 || first > 6 {
		t.Fatalf("replay without the oldest segments starts at %d, want in (1, 6]", first)
	}
}

// corrupt opens the file and overwrites one byte at off.
func corrupt(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{0xFF}, off); err != nil {
		t.Fatal(err)
	}
}

func lastSegment(t *testing.T, dir string) (path string, size int64) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		path = filepath.Join(dir, e.Name())
		size = fi.Size()
	}
	if path == "" {
		t.Fatal("no segments")
	}
	return path, size
}

func fill(t *testing.T, dir string, n int, opts Options) {
	t.Helper()
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("record-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	// A crash mid-append leaves a partial record at the very end of the last
	// segment. Open must drop it silently and keep everything before it.
	cases := []struct {
		name string
		tear func(t *testing.T, path string, size int64)
	}{
		{"partial header", func(t *testing.T, path string, size int64) {
			if err := os.Truncate(path, size-14); err != nil { // record is 8+10 bytes
				t.Fatal(err)
			}
		}},
		{"partial payload", func(t *testing.T, path string, size int64) {
			if err := os.Truncate(path, size-4); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt final record", func(t *testing.T, path string, size int64) {
			corrupt(t, path, size-1) // payload byte of the last record
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fill(t, dir, 10, Options{})
			path, size := lastSegment(t, dir)
			tc.tear(t, path, size)

			w, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("open after torn tail: %v", err)
			}
			defer w.Close()
			got := collect(t, w)
			if len(got) != 9 {
				t.Fatalf("survived %d records, want 9", len(got))
			}
			if w.LastSeq() != 9 {
				t.Fatalf("LastSeq = %d, want 9", w.LastSeq())
			}
			// The torn bytes are gone from disk: appending works and replay
			// stays consistent.
			if seq, err := w.Append([]byte("recovered")); err != nil || seq != 10 {
				t.Fatalf("append after recovery: seq=%d err=%v", seq, err)
			}
			if got := collect(t, w); len(got) != 10 || string(got[9]) != "recovered" {
				t.Fatalf("replay after recovery: %d records", len(got))
			}
		})
	}
}

func TestCorruptMidSegmentRejected(t *testing.T) {
	// A CRC mismatch that is NOT the final record cannot be a torn write —
	// something rewrote history. Open must refuse rather than silently skip.
	dir := t.TempDir()
	fill(t, dir, 10, Options{})
	path, _ := lastSegment(t, dir)
	corrupt(t, path, headerSize+2) // payload of the first record

	_, err := Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with mid-segment corruption: err=%v, want ErrCorrupt", err)
	}
}

func TestCorruptSealedSegmentRejected(t *testing.T) {
	// Damage in a sealed (non-last) segment is never torn-tail tolerable,
	// even at its end.
	dir := t.TempDir()
	fill(t, dir, 10, Options{SegmentBytes: 64})
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("need >= 2 segments, got %d", len(entries))
	}
	firstPath := filepath.Join(dir, entries[0].Name())
	fi, err := entries[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	corrupt(t, firstPath, fi.Size()-1) // last byte of a sealed segment

	_, err = Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with sealed-segment corruption: err=%v, want ErrCorrupt", err)
	}
}

func TestEmptyActiveSegmentRecovery(t *testing.T) {
	// Rotation creates a fresh segment; crashing before the first append to
	// it must not lose the sequence position.
	dir := t.TempDir()
	fill(t, dir, 3, Options{})
	// Simulate a rotation that never got a record: an empty segment whose
	// name claims the next sequence.
	if err := os.WriteFile(filepath.Join(dir, segmentName(4)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", w.LastSeq())
	}
	if seq, err := w.Append([]byte("next")); err != nil || seq != 4 {
		t.Fatalf("append: seq=%d err=%v", seq, err)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
	}{{"always", FsyncAlways}, {"Interval", FsyncInterval}, {" never ", FsyncNever}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("ParsePolicy should reject unknown spellings")
	}
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		if rt, err := ParsePolicy(p.String()); err != nil || rt != p {
			t.Errorf("round trip %v failed: %v %v", p, rt, err)
		}
	}
}

func TestClosedWAL(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := w.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed: %v", err)
	}
	if err := w.Replay(func(uint64, []byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("replay on closed: %v", err)
	}
}

func TestFsyncIntervalFlushesToKernel(t *testing.T) {
	// Under FsyncInterval every append is flushed to the OS, so a process
	// kill (simulated: abandon without Close) loses nothing.
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the file descriptor leaks (process-death simulation).
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := collect(t, w2); len(got) != 5 {
		t.Fatalf("survived %d records after abandonment, want 5", len(got))
	}
}

// fsyncsTimed returns the fsync duration family's _count for the fix log as
// the process registry exposes it.
func fsyncsTimed(t *testing.T) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fams["dlinfma_wal_fsync_duration_seconds"].Samples {
		if s.Name == "dlinfma_wal_fsync_duration_seconds_count" && s.Labels["log"] == "fix" {
			return s.Value
		}
	}
	t.Fatal("no dlinfma_wal_fsync_duration_seconds_count sample")
	return 0
}

// TestEveryFsyncCounted: under FsyncNever the appends themselves never sync,
// but each rotation seals its segment with an fsync and so does Close; the
// counter and the fsync duration family must see every one of them.
func TestEveryFsyncCounted(t *testing.T) {
	w, err := Open(t.TempDir(), Options{SegmentBytes: 1, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	fsyncs, rotationsTotal := fsyncsTotal.With("fix"), rotationsTotal.With("fix")
	syncs, timed, rotations := fsyncs.Value(), fsyncsTimed(t), rotationsTotal.Value()
	const n = 4
	for i := 0; i <= n; i++ { // every append after the first rotates
		if _, err := w.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := rotationsTotal.Value() - rotations; got != n {
		t.Fatalf("%d rotations, want %d", got, n)
	}
	if got := fsyncs.Value() - syncs; got != n {
		t.Errorf("fsyncs_total moved by %d over %d rotations, want %d", got, n, n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fsyncs.Value() - syncs; got != n+1 {
		t.Errorf("fsyncs_total moved by %d after Close, want %d", got, n+1)
	}
	if got := fsyncsTimed(t) - timed; got != float64(n+1) {
		t.Errorf("fsync duration recorded %v syncs, want %d", got, n+1)
	}
}

// TestAppendBatchFramesLikeAppend: a batch is indistinguishable on disk from
// the same payloads appended one by one, takes dense consecutive sequences,
// and is decided into one segment whole — rotation happens before a batch,
// never inside it.
func TestAppendBatchFramesLikeAppend(t *testing.T) {
	payloads := [][]byte{[]byte("a"), {}, []byte("record-two"), bytes.Repeat([]byte{0xAB}, 300)}
	oneDir, batchDir := t.TempDir(), t.TempDir()
	one, err := Open(oneDir, Options{Policy: FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	batch, err := Open(batchDir, Options{Policy: FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer batch.Close()
	for round := 0; round < 3; round++ {
		for _, p := range payloads {
			if _, err := one.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		first, err := batch.AppendBatch(payloads)
		if want := uint64(round*len(payloads) + 1); err != nil || first != want {
			t.Fatalf("AppendBatch round %d: first=%d err=%v, want %d", round, first, err, want)
		}
	}
	if first, err := batch.AppendBatch(nil); err != nil || first != batch.LastSeq()+1 {
		t.Fatalf("empty batch: first=%d err=%v", first, err)
	}
	onePath, _ := lastSegment(t, oneDir)
	batchPath, _ := lastSegment(t, batchDir)
	a, err := os.ReadFile(onePath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(batchPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("batched log differs from the record-by-record log (%d vs %d bytes)", len(b), len(a))
	}

	// 20-byte segments: every batch starts a fresh segment and stays in it.
	small, err := Open(t.TempDir(), Options{SegmentBytes: 20, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	for round := 1; round <= 3; round++ {
		if _, err := small.AppendBatch(payloads); err != nil {
			t.Fatal(err)
		}
		if got := segments(small); got != round {
			t.Fatalf("after batch %d: %d segments, want %d (a batch never spans segments)", round, got, round)
		}
	}
	if got := collect(t, small); len(got) != 3*len(payloads) {
		t.Fatalf("replayed %d records across segments, want %d", len(got), 3*len(payloads))
	}
}

// TestTornBatchKeepsCompletePrefix: a crash can cut a batch's single write
// anywhere. Whatever the offset, Open keeps exactly the records that are
// whole before the cut, replays nothing that was never appended, and the
// next append continues the dense sequence.
func TestTornBatchKeepsCompletePrefix(t *testing.T) {
	var batch [][]byte
	for i := 0; i < 6; i++ {
		batch = append(batch, []byte(fmt.Sprintf("batch-%d-%s", i, bytes.Repeat([]byte{'x'}, i*3))))
	}
	src := t.TempDir()
	fill(t, src, 4, Options{})
	path, before := lastSegment(t, src)
	w, err := Open(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first, err := w.AppendBatch(batch); err != nil || first != 5 {
		t.Fatalf("AppendBatch: first=%d err=%v", first, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is the offset just past the i-th batch record.
	var ends []int64
	off := before
	for _, p := range batch {
		off += headerSize + int64(len(p))
		ends = append(ends, off)
	}
	if off != int64(len(whole)) {
		t.Fatalf("segment is %d bytes, framing says %d", len(whole), off)
	}

	for cut := before; cut < int64(len(whole)); cut++ {
		dir := t.TempDir()
		torn := filepath.Join(dir, filepath.Base(path))
		if err := os.WriteFile(torn, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		kept := 0
		for kept < len(ends) && ends[kept] <= cut {
			kept++
		}
		w, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut at %d: open: %v", cut, err)
		}
		got := collect(t, w) // also checks the sequences are dense from 1
		if len(got) != 4+kept {
			t.Fatalf("cut at %d: %d records survive, want %d", cut, len(got), 4+kept)
		}
		for i := 0; i < kept; i++ {
			if !bytes.Equal(got[4+i], batch[i]) {
				t.Fatalf("cut at %d: surviving record %d = %q, want %q", cut, 4+i, got[4+i], batch[i])
			}
		}
		if first, err := w.AppendBatch(batch[:2]); err != nil || first != uint64(4+kept+1) {
			t.Fatalf("cut at %d: append after recovery: first=%d err=%v, want %d", cut, first, err, 4+kept+1)
		}
		if got := collect(t, w); len(got) != 4+kept+2 {
			t.Fatalf("cut at %d: %d records after the next append, want %d", cut, len(got), 4+kept+2)
		}
		w.Close()
	}
}

// TestReplayStopsAtSnapshottedSeq: Replay reads each segment only up to the
// record count it saw when it started, so a record appended while it runs —
// here by the replay callback itself — is not replayed.
func TestReplayStopsAtSnapshottedSeq(t *testing.T) {
	w, err := Open(t.TempDir(), Options{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var seqs []uint64
	err = w.Replay(func(seq uint64, _ []byte) error {
		seqs = append(seqs, seq)
		if seq == 1 {
			_, err := w.Append([]byte("during replay"))
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seqs) != "[1 2 3]" {
		t.Fatalf("replayed seqs %v, want [1 2 3]", seqs)
	}
	if w.LastSeq() != 4 {
		t.Fatalf("LastSeq = %d, want 4", w.LastSeq())
	}
}

// FuzzWALSegment damages one segment of a multi-segment log — one byte XORed
// with a mask, then optionally a cut — and reopens it. Open must either refuse
// with ErrCorrupt or recover a log whose replay is a byte-equal prefix of what
// was appended, with dense sequences from 1. A cut of 0 leaves the segment's
// length alone; any other cut keeps its first (cut-1) mod (len+1) bytes.
func FuzzWALSegment(f *testing.F) {
	payloads := make([][]byte, 12)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, i*7%19)
	}
	src := f.TempDir()
	w, err := Open(src, Options{SegmentBytes: 40, Policy: FsyncNever})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := w.AppendBatch(payloads[:3]); err != nil {
		f.Fatal(err)
	}
	for _, p := range payloads[3:] {
		if _, err := w.Append(p); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		f.Fatal(err)
	}
	var names []string
	var segs [][]byte
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		names, segs = append(names, e.Name()), append(segs, b)
	}
	if len(segs) < 2 {
		f.Fatalf("log has %d segments, want >= 2", len(segs))
	}
	last := len(segs) - 1
	f.Add(uint8(0), uint16(0), byte(0), uint16(0))                      // the clean log
	f.Add(uint8(last), uint16(0), byte(0), uint16(len(segs[last])-3+1)) // a torn tail
	f.Add(uint8(0), uint16(headerSize+1), byte(0x10), uint16(0))        // a flipped sealed-segment byte
	f.Fuzz(func(t *testing.T, seg uint8, off uint16, mask byte, cut uint16) {
		dir := t.TempDir()
		target := int(seg) % len(segs)
		for i, b := range segs {
			if i == target {
				b = append([]byte(nil), b...)
				if len(b) > 0 {
					b[int(off)%len(b)] ^= mask
				}
				if cut > 0 {
					b = b[:int(cut-1)%(len(b)+1)]
				}
			}
			if err := os.WriteFile(filepath.Join(dir, names[i]), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		w, err := Open(dir, Options{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open: %v, want nil or ErrCorrupt", err)
			}
			return
		}
		defer w.Close()
		n := 0
		err = w.Replay(func(seq uint64, p []byte) error {
			if seq != uint64(n+1) {
				return fmt.Errorf("replayed seq %d after %d records", seq, n)
			}
			if n == len(payloads) || !bytes.Equal(p, payloads[n]) {
				return fmt.Errorf("record %d = %q, not the payload appended there", seq, p)
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := w.LastSeq(); got != uint64(n) {
			t.Fatalf("LastSeq %d after replaying %d records", got, n)
		}
	})
}

// segments returns the number of w's segments, sealed and active.
func segments(w *WAL) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sealed) + 1
}

// appendN appends n records "r<i>" from i = from on and returns the log's
// end after them.
func appendN(t *testing.T, w *WAL, from, n int) Position {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("r%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	end, err := w.End()
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// TestOpenFromReadsNothingBefore: a log reopened at a position it recorded
// replays exactly the records past it and continues the sequence, without
// reading a byte before it — every byte there is overwritten with garbage
// first. TruncateThrough then deletes the segments wholly before the
// position, once the caller's durability hook ran, and the gauges say what
// is left.
func TestOpenFromReadsNothingBefore(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 40, Policy: FsyncNever, Log: "open-from"}
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	pos := appendN(t, w, 0, 7) // 12-byte frames: four to a segment
	appendN(t, w, 7, 5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if pos.Seq != 8 || pos.Segment != 5 || pos.Offset != 36 {
		t.Fatalf("End after 7 records = %+v, want {8 5 36}", pos)
	}
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		first, _ := parseSegmentName(filepath.Base(name))
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case first < pos.Segment:
			b = bytes.Repeat([]byte{0xFF}, len(b))
		case first == pos.Segment:
			copy(b, bytes.Repeat([]byte{0xFF}, int(pos.Offset)))
		}
		if err := os.WriteFile(name, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	w, err = OpenFrom(dir, opts, pos)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var got []string
	err = w.Replay(func(seq uint64, p []byte) error {
		if want := fmt.Sprintf("r%03d", seq-1); string(p) != want {
			return fmt.Errorf("record %d = %q, want %q", seq, p, want)
		}
		got = append(got, string(p))
		return nil
	})
	if err != nil || len(got) != 5 {
		t.Fatalf("replayed %q, %v; want r007..r011", got, err)
	}
	if w.LastSeq() != 12 {
		t.Fatalf("LastSeq = %d, want 12", w.LastSeq())
	}
	retained, compacted := retainedBytes.With("open-from"), compactedSeq.With("open-from")
	if retained.Value() != 5*12 || compacted.Value() != 7 {
		t.Fatalf("retained %v bytes, compacted through %v; want 60 and 7", retained.Value(), compacted.Value())
	}

	deleted := segmentsDeleted.With("open-from").Value()
	hooked := 0
	if err := w.TruncateThrough(pos, func() error { hooked++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n := segmentsDeleted.With("open-from").Value() - deleted; n != 1 || hooked != 1 {
		t.Fatalf("truncation deleted %d segments and ran the hook %d times, want 1 and 1", n, hooked)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(left) != len(names)-1 {
		t.Fatalf("%d segments left of %d", len(left), len(names))
	}
	// A truncation with nothing to delete runs no hook; one past the end is
	// refused.
	if err := w.TruncateThrough(pos, func() error { return errors.New("hook ran") }); err != nil {
		t.Fatal(err)
	}
	if err := w.TruncateThrough(Position{Seq: 14, Segment: pos.Segment}, nil); err == nil {
		t.Fatal("a truncation past the end succeeded")
	}
	if seq, err := w.Append([]byte("r012")); err != nil || seq != 13 {
		t.Fatalf("append after truncation: seq %d, %v", seq, err)
	}
	if retained.Value() != 6*12 {
		t.Fatalf("retained %v bytes after one more append, want 72", retained.Value())
	}
}

// TestOpenFromRestartsAShortLog: when the log holds nothing at or past the
// resume position — its last segment ends before it, or is gone — OpenFrom
// restarts the log at the position. A resume segment that is gone while a
// later one exists is corruption.
func TestOpenFromRestartsAShortLog(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	pos := appendN(t, w, 0, 4)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(1))
	if err := os.Truncate(path, pos.Offset-5); err != nil {
		t.Fatal(err)
	}
	w, err = OpenFrom(dir, Options{}, pos)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, w); len(got) != 0 || w.LastSeq() != 4 {
		t.Fatalf("restarted log replays %d records, LastSeq %d; want 0 and 4", len(got), w.LastSeq())
	}
	if seq, err := w.Append([]byte("r004")); err != nil || seq != 5 {
		t.Fatalf("append to the restarted log: seq %d, %v", seq, err)
	}
	// Until its owner records a later position, the restarted log reopens
	// at the stale one, before the short segment is deleted and after.
	reopen := func(what string) {
		t.Helper()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w, err = OpenFrom(dir, Options{}, pos); err != nil {
			t.Fatalf("reopen the restarted log %s: %v", what, err)
		}
		var got []string
		if err := w.Replay(func(seq uint64, p []byte) error {
			got = append(got, fmt.Sprintf("%d:%s", seq, p))
			return nil
		}); err != nil || len(got) != 1 || got[0] != "5:r004" {
			t.Fatalf("the restarted log reopened %s replays %q (%v), want r004 at 5", what, got, err)
		}
	}
	reopen("before the truncation")
	if err := w.TruncateThrough(pos, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("the short segment survived the truncation: %v", err)
	}
	reopen("after the truncation")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen at a position in a segment that is gone while a later one
	// exists: corruption.
	if _, err := OpenFrom(dir, Options{}, Position{Seq: 3, Segment: 1, Offset: 20}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenFrom a missing segment before a live one: %v, want ErrCorrupt", err)
	}
}

// TestDirectorySyncsCounted pins every fsync a durable policy issues, the
// directory's among them: creating a segment syncs the directory (a record
// in a file no entry names is lost with the entry), and so does a
// truncation that removed segments. Under FsyncNever neither does.
func TestDirectorySyncsCounted(t *testing.T) {
	for _, tc := range []struct {
		policy FsyncPolicy
		want   int64
	}{
		// The directory after Open's segment (1), five appends (5), four
		// rotations of segment and directory (8), the truncation's directory
		// (1) and Close (1).
		{FsyncAlways, 16},
		// Four rotations' segments and Close.
		{FsyncNever, 5},
	} {
		log := "dirsync-" + tc.policy.String()
		fsyncs := fsyncsTotal.With(log)
		before := fsyncs.Value()
		w, err := Open(t.TempDir(), Options{SegmentBytes: 1, Policy: tc.policy, Log: log})
		if err != nil {
			t.Fatal(err)
		}
		end := appendN(t, w, 0, 5)
		if err := w.TruncateThrough(end, nil); err != nil {
			t.Fatal(err)
		}
		if n := segments(w); n != 1 {
			t.Fatalf("%v: %d segments after the truncation, want 1", tc.policy, n)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := fsyncs.Value() - before; got != tc.want {
			t.Errorf("%v: %d fsyncs, want %d", tc.policy, got, tc.want)
		}
	}
}
