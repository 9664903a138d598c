// Package wal implements the write-ahead log behind the engine's streaming
// ingest path. Every mutation is appended as a length-prefixed,
// CRC32C-checksummed record before it is acknowledged; after a crash the
// engine replays the log on top of the last snapshot, so no acknowledged
// write is lost. Segments rotate at a byte bound. A log can be compacted:
// once its owner has durably recorded elsewhere everything before a
// Position, TruncateThrough makes that position the log's start — a
// restart opens the log there (OpenFrom) and replays nothing before it —
// and deletes the segments wholly before it.
//
// On-disk format, little-endian, per record:
//
//	[4B payload length][4B CRC32-C of payload][payload bytes]
//
// Segment files are named wal-%016x.log where the hex field is the sequence
// number of the segment's first record; sequence numbers are global,
// 1-based, and dense, so (filename, record ordinal) recovers every record's
// sequence without an index file. Open and OpenFrom skip subdirectories, so
// a second log can live in a subdirectory of the first.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// headerSize is the fixed per-record prefix: 4 bytes payload length plus
// 4 bytes CRC32-C of the payload.
const headerSize = 8

// maxFrameScratch bounds the framing buffer a WAL keeps between appends; a
// streamed burst frames to well under it, a batch-window record may not.
const maxFrameScratch = 1 << 20

// castagnoli is the CRC32-C table; Castagnoli has hardware support on both
// amd64 and arm64, so the checksum is nearly free next to the fsync.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FsyncPolicy selects how durability is traded against append latency.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: an acknowledged record survives
	// power loss, at the cost of one fsync per record.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs at most once per Options.Interval, batching
	// appends in between: a crash can lose up to one interval of
	// acknowledged records, but kill -9 (process death with a live kernel)
	// loses nothing once the buffer is flushed.
	FsyncInterval
	// FsyncNever leaves syncing to the OS page cache. Fastest; a power loss
	// can lose everything since the last rotation.
	FsyncNever
)

// ParsePolicy maps the CLI spellings ("always", "interval", "never") to a
// policy, for the serve -wal-fsync flag.
func ParsePolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("unknown fsync policy %q (want always, interval, or never)", s)
}

// String returns the CLI spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Options configures a WAL. The zero value is usable: 64 MiB segments,
// FsyncAlways.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes. Zero means 64 MiB.
	SegmentBytes int64
	// Policy selects the fsync discipline; the zero value is FsyncAlways.
	Policy FsyncPolicy
	// Interval is the maximum time acknowledged-but-unsynced records can sit
	// in the OS under FsyncInterval. Zero means 100 ms.
	Interval time.Duration
	// Log is the value of the log label on this log's dlinfma_wal_* series,
	// so that two logs of one process count apart. Empty means "fix".
	Log string
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.Log == "" {
		o.Log = "fix"
	}
	return o
}

// durable reports whether the policy promises that what an append
// acknowledges survives a power loss, eventually (FsyncInterval) or at once
// (FsyncAlways). Where it does, creating and removing a segment also syncs
// the directory that names it.
func (o Options) durable() bool { return o.Policy != FsyncNever }

// Position is a point in the log between two records: the sequence of the
// first record past it, and where that record starts or would start — the
// segment that holds the position, by its first sequence, and the byte
// offset in it. A position at the end of a full segment stays in that
// segment; the next record then opens the segment named Seq.
type Position struct {
	Seq     uint64
	Segment uint64
	Offset  int64
}

// ErrCorrupt is wrapped by errors reporting a damaged record that cannot be
// explained as a torn tail write (CRC mismatch mid-segment, or any damage in
// a sealed segment). A torn tail — a partial record at the very end of the
// last segment — is the expected signature of a crash mid-append and is
// silently truncated instead.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = errors.New("wal: closed")

type segmentInfo struct {
	path     string
	firstSeq uint64 // sequence of the segment's first record
	lastSeq  uint64 // sequence of its last record (0 if empty)
	size     int64  // bytes of its complete records
}

// records is the number of records of seg from sequence from on, when seg
// was taken.
func (seg segmentInfo) records(from uint64) int {
	if seg.lastSeq < from {
		return 0
	}
	return int(seg.lastSeq - from + 1)
}

// WAL is a segmented write-ahead log. All methods are safe for concurrent
// use, though the engine serializes appends under its ingest lock anyway.
type WAL struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	size     int64  // bytes written to the active segment
	seq      uint64 // sequence of the last appended record (global, 1-based)
	firstSeq uint64 // first record sequence of the active segment
	sealed   []segmentInfo
	closed   bool
	lastSync time.Time // last fsync under FsyncInterval
	// start is the log's compaction point: Replay begins there, and the
	// sealed segments before start.Segment hold nothing a restart reads.
	// live is the bytes of records past it, what the retained-bytes gauge
	// publishes.
	start Position
	live  int64
	m     *logMetrics

	frames []byte // append scratch: the framed records of one call
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016x.log", firstSeq)
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Open opens (or creates) the WAL in dir. Existing segments are scanned in
// sequence order; a torn record at the tail of the last segment — the
// signature of a crash mid-append — is truncated away, while damage anywhere
// else, a sealed segment cut short at a record boundary included, returns an
// error wrapping ErrCorrupt. After Open, Replay iterates the surviving records
// and Append continues the sequence.
func Open(dir string, opts Options) (*WAL, error) { return OpenFrom(dir, opts, Position{}) }

// OpenFrom is Open of a compacted log: from is a position its owner
// recorded (End at the time) and now resumes at. Nothing before from is
// read: the segments wholly before it are listed but not scanned, and the
// one it is in is scanned from its offset, so they stay in place for
// TruncateThrough to delete. If the log holds nothing at or past from — its
// tail before from never reached the disk, as a power loss under a lax
// policy can leave it, or the directory is empty — the log restarts at
// from with a fresh segment: what it lost is what from covers. A later
// OpenFrom at the same from resumes at the start of that segment, so a log
// restarted and reopened before its owner records a new position opens
// again. The zero Position is the start of the log.
func OpenFrom(dir string, opts Options, from Position) (*WAL, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var segs []segmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if first, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segmentInfo{path: filepath.Join(dir, e.Name()), firstSeq: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })

	w := &WAL{dir: dir, opts: opts, m: metricsFor(opts.Log)}
	if from == (Position{}) && len(segs) > 0 {
		from = Position{Seq: segs[0].firstSeq, Segment: segs[0].firstSeq}
	}
	// The segments wholly before from are dead: sized, never read.
	dead := 0
	markDead := func() error {
		for dead < len(segs) && segs[dead].firstSeq < from.Segment {
			fi, err := os.Stat(segs[dead].path)
			if err != nil {
				return fmt.Errorf("wal: stat segment: %w", err)
			}
			segs[dead].size = fi.Size()
			if dead+1 < len(segs) {
				segs[dead].lastSeq = segs[dead+1].firstSeq - 1
			}
			dead++
		}
		return nil
	}
	if err := markDead(); err != nil {
		return nil, err
	}
	live := segs[dead:]
	resumable := len(live) > 0 && live[0].firstSeq == from.Segment
	if resumable {
		fi, err := os.Stat(live[0].path)
		if err != nil {
			return nil, fmt.Errorf("wal: stat segment: %w", err)
		}
		resumable = fi.Size() >= from.Offset
	}
	if !resumable && from.Seq > 0 && from.Seq != from.Segment {
		// An earlier open restarted the log at from (below) and its owner has
		// recorded no later position: resume at the restart's segment, and
		// the short segments before it are dead.
		for _, seg := range live {
			if seg.firstSeq == from.Seq {
				from = Position{Seq: from.Seq, Segment: from.Seq}
				if err := markDead(); err != nil {
					return nil, err
				}
				live, resumable = segs[dead:], true
				break
			}
		}
	}
	if !resumable && from.Seq > 0 {
		if len(live) > 1 || (len(live) == 1 && live[0].firstSeq != from.Segment) {
			return nil, fmt.Errorf("%w: %s: no segment %s to resume at sequence %d",
				ErrCorrupt, dir, segmentName(from.Segment), from.Seq)
		}
		// Nothing at or past from survived: restart the log there. The old
		// files hold only records from covers; they go with the next
		// truncation.
		w.sealed, w.seq = segs, from.Seq-1
		w.start = Position{Seq: from.Seq, Segment: from.Seq}
		if err := w.openSegment(from.Seq); err != nil {
			return nil, err
		}
		w.publish()
		return w, nil
	}
	// Scan the live segments to validate them and learn their record
	// counts. Only the last may end in a torn record; earlier segments were
	// sealed by a rotation, after which nothing ever wrote to them again.
	for i := range live {
		seg := &live[i]
		last := i == len(live)-1
		off, seq0 := int64(0), seg.firstSeq
		if i == 0 {
			off, seq0 = from.Offset, from.Seq
		}
		n, validBytes, err := scanSegment(seg.path, off, last, -1, nil)
		if err != nil {
			return nil, err
		}
		seg.size = validBytes
		seg.lastSeq = seq0 + uint64(n) - 1 // seq0-1 when empty
		// Sequences are dense, so a sealed segment ends where the next begins.
		if !last && seq0+uint64(n) != live[i+1].firstSeq {
			return nil, fmt.Errorf("%w: %s: %d records, but the next segment starts at sequence %d",
				ErrCorrupt, seg.path, n, live[i+1].firstSeq)
		}
		if last {
			if fi, err := os.Stat(seg.path); err == nil && fi.Size() > validBytes {
				w.m.tornTails.Inc()
				if err := os.Truncate(seg.path, validBytes); err != nil {
					return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", seg.path, err)
				}
			}
			w.size = validBytes
		}
		w.seq = seg.lastSeq
	}

	if len(segs) == 0 {
		// Fresh log: first record will be sequence 1.
		w.start = Position{Seq: 1, Segment: 1}
		if err := w.openSegment(1); err != nil {
			return nil, err
		}
	} else {
		w.start = from
		active := segs[len(segs)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open active segment: %w", err)
		}
		w.f = f
		w.w = bufio.NewWriter(f)
		w.firstSeq = active.firstSeq
		w.sealed = segs[:len(segs)-1]
	}
	w.publish()
	return w, nil
}

// scanSegment is the log's one frame reader. It reads a segment's records in
// order from byte offset from (a record boundary), returning how many are
// valid and the byte offset just past the last one. It stops after limit records (a negative limit reads to the end of the
// file) and, when fn is non-nil, hands it each record's ordinal in the
// segment and its payload; the payload slice is reused between calls, and
// fn's first error stops the scan and is returned as is. With tolerateTail
// set, a partial or checksum-failing record at the very end of the file is
// treated as a torn write (the scan stops cleanly before it); any other
// damage, and any damage at all with tolerateTail unset, returns ErrCorrupt.
func scanSegment(path string, from int64, tolerateTail bool, limit int, fn func(i int, payload []byte) error) (records int, validBytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: open segment: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("wal: stat segment: %w", err)
	}
	size := fi.Size()
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("wal: seek segment: %w", err)
	}
	br := bufio.NewReader(f)
	var (
		head [headerSize]byte
		buf  []byte
		off  = from
	)
	for records != limit {
		if _, err := io.ReadFull(br, head[:]); err != nil {
			if err == io.EOF {
				return records, off, nil // clean end
			}
			// Partial header: torn only if nothing follows it.
			if err == io.ErrUnexpectedEOF && tolerateTail {
				return records, off, nil
			}
			return 0, 0, fmt.Errorf("%w: %s: partial header at offset %d", ErrCorrupt, path, off)
		}
		length := binary.LittleEndian.Uint32(head[0:4])
		want := binary.LittleEndian.Uint32(head[4:8])
		end := off + headerSize + int64(length)
		if end > size {
			// Payload runs past the file: torn write if this is the tail.
			if tolerateTail {
				return records, off, nil
			}
			return 0, 0, fmt.Errorf("%w: %s: truncated payload at offset %d", ErrCorrupt, path, off)
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, err := io.ReadFull(br, buf); err != nil {
			if tolerateTail && end == size {
				return records, off, nil
			}
			return 0, 0, fmt.Errorf("%w: %s: short payload at offset %d", ErrCorrupt, path, off)
		}
		if crc32.Checksum(buf, castagnoli) != want {
			// A CRC mismatch on the final record of the last segment is a
			// torn payload write; anywhere else it is real corruption.
			if tolerateTail && end == size {
				return records, off, nil
			}
			return 0, 0, fmt.Errorf("%w: %s: checksum mismatch at offset %d", ErrCorrupt, path, off)
		}
		if fn != nil {
			if err := fn(records, buf); err != nil {
				return records, off, err
			}
		}
		records++
		off = end
	}
	return records, off, nil
}

// openSegment creates a fresh active segment whose first record will carry
// the given sequence number, and syncs the directory where the policy is
// durable: an acknowledged record in a file no directory entry names is lost.
func (w *WAL) openSegment(firstSeq uint64) error {
	path := filepath.Join(w.dir, segmentName(firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	w.f = f
	w.w = bufio.NewWriter(f)
	w.firstSeq = firstSeq
	w.size = 0
	if w.opts.durable() {
		if err := w.syncDir(); err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs the log's directory, so segment creations and removals
// are durable.
func (w *WAL) syncDir() error {
	d, err := os.Open(w.dir)
	if err != nil {
		return fmt.Errorf("wal: open dir: %w", err)
	}
	defer d.Close()
	if err := w.fsync(d); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// Append writes one record and returns its sequence number. Under
// FsyncAlways the record is on disk when Append returns; under the other
// policies durability follows the policy's contract. An error means the
// record must NOT be acknowledged to the client.
func (w *WAL) Append(payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	one := [1][]byte{payload}
	return w.appendLocked(one[:])
}

// AppendBatch writes payloads as consecutive records — framed exactly as
// Append frames one, so no reader can tell them apart — with one buffered
// write and one fsync decision for the whole batch, and returns the sequence
// of the first (the i-th payload has first+i). A batch never spans segments:
// rotation is decided before it, never inside it. An error means none of the
// batch may be acknowledged; a crash mid-write can leave a prefix of its
// records behind, which Open keeps like any other complete record.
func (w *WAL) AppendBatch(payloads [][]byte) (first uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(payloads)
}

// appendLocked frames payloads into the reused batch buffer and hands them
// to the segment writer in one Write. Callers hold w.mu.
func (w *WAL) appendLocked(payloads [][]byte) (first uint64, err error) {
	if w.closed {
		return 0, ErrClosed
	}
	if len(payloads) == 0 {
		return w.seq + 1, nil
	}
	if w.size >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	b := w.frames[:0]
	for _, p := range payloads {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(p, castagnoli))
		b = append(b, p...)
	}
	if w.frames = b; cap(b) > maxFrameScratch {
		w.frames = nil // one huge ingest record must not pin its size forever
	}
	if _, err := w.w.Write(b); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	w.size += int64(len(b))
	w.live += int64(len(b))
	first = w.seq + 1
	w.seq += uint64(len(payloads))
	if err := w.syncLocked(); err != nil {
		return 0, err
	}
	w.m.appends.Add(int64(len(payloads)))
	w.m.appendBytes.Add(int64(len(b)))
	w.m.retained.Set(float64(w.live))
	w.m.appendDuration.Record(time.Since(start))
	return first, nil
}

// syncLocked applies the fsync policy after an append. Callers hold w.mu.
func (w *WAL) syncLocked() error {
	switch w.opts.Policy {
	case FsyncAlways:
		if err := w.w.Flush(); err != nil {
			return fmt.Errorf("wal: flush: %w", err)
		}
		if err := w.fsync(w.f); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
	case FsyncInterval:
		// Flush to the kernel on every append (surviving process death),
		// fsync at most once per interval (bounding power-loss exposure).
		if err := w.w.Flush(); err != nil {
			return fmt.Errorf("wal: flush: %w", err)
		}
		if now := time.Now(); now.Sub(w.lastSync) >= w.opts.Interval {
			if err := w.fsync(w.f); err != nil {
				return fmt.Errorf("wal: fsync: %w", err)
			}
			w.lastSync = now
		}
	case FsyncNever:
		// Leave records in the bufio buffer until it spills; rotation and
		// Close flush them.
	}
	return nil
}

// fsync syncs f — the active segment, or the log's directory — to disk. It
// is the log's only call to File.Sync, so dlinfma_wal_fsyncs_total and the
// fsync duration family see every sync: the policy's, rotation's, Sync's,
// Close's and the directory's. Callers hold w.mu, or own w alone (Open).
func (w *WAL) fsync(f *os.File) error {
	start := time.Now()
	err := f.Sync()
	w.m.fsyncDuration.Record(time.Since(start))
	w.m.fsyncs.Inc()
	return err
}

// rotateLocked seals the active segment and opens a fresh one.
func (w *WAL) rotateLocked() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("wal: rotate flush: %w", err)
	}
	if err := w.fsync(w.f); err != nil {
		return fmt.Errorf("wal: rotate fsync: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	w.sealed = append(w.sealed, segmentInfo{
		path:     w.f.Name(),
		firstSeq: w.firstSeq,
		lastSeq:  w.seq,
		size:     w.size,
	})
	w.m.rotations.Inc()
	return w.openSegment(w.seq + 1)
}

// Sync forces buffered records to disk regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := w.fsync(w.f); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// End flushes buffered records to the kernel and returns the position just
// past the last appended record: a position a process crash cannot leave
// past the end of the log.
func (w *WAL) End() (Position, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return Position{}, ErrClosed
	}
	if err := w.w.Flush(); err != nil {
		return Position{}, fmt.Errorf("wal: flush: %w", err)
	}
	return Position{Seq: w.seq + 1, Segment: w.firstSeq, Offset: w.size}, nil
}

// TruncateThrough makes pos, a position not past the log's end, the log's
// compaction point: Replay starts there, and so does OpenFrom given the
// same pos. A position before the log's start (the zero Position among
// them) leaves the start where it is. Every sealed segment wholly before it
// is deleted, oldest first; durable, if not nil, runs once before the first
// deletion, so the caller can make durable the record that covers the
// deleted ones, and its error stops the truncation before anything is
// deleted. A deletion that fails stops the truncation too; the next one
// retries it. Where the policy is durable, the directory is synced after
// the deletions.
func (w *WAL) TruncateThrough(pos Position, durable func() error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if pos.Seq < w.start.Seq || pos.Segment < w.start.Segment {
		pos = w.start
	}
	if pos.Seq > w.seq+1 || pos.Segment > w.firstSeq {
		return fmt.Errorf("wal: truncate to sequence %d in segment %d: outside the log's sequences %d..%d",
			pos.Seq, pos.Segment, w.start.Seq, w.seq+1)
	}
	w.start = pos
	removed := 0
	for ; removed < len(w.sealed) && w.sealed[removed].firstSeq < pos.Segment; removed++ {
		if removed == 0 && durable != nil {
			if err := durable(); err != nil {
				return err
			}
		}
		if err := os.Remove(w.sealed[removed].path); err != nil && !os.IsNotExist(err) {
			break
		}
		w.m.segmentsDeleted.Inc()
	}
	w.sealed = w.sealed[removed:]
	w.publish()
	if removed > 0 && w.opts.durable() {
		return w.syncDir()
	}
	return nil
}

// publish recomputes the bytes past the compaction point and sets the
// retained-bytes and compaction gauges. Callers hold w.mu, or own w alone.
func (w *WAL) publish() {
	w.live = w.size - w.start.Offset
	if w.start.Segment != w.firstSeq {
		w.live = w.size
		for _, seg := range w.sealed {
			switch {
			case seg.firstSeq == w.start.Segment:
				w.live += seg.size - w.start.Offset
			case seg.firstSeq > w.start.Segment:
				w.live += seg.size
			}
		}
	}
	w.m.retained.Set(float64(w.live))
	w.m.compacted.Set(float64(w.start.Seq - 1))
}

// LastSeq returns the sequence number of the most recently appended record
// (0 if the log is empty).
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Replay calls fn for every record in sequence order, from the compaction
// point through the active segment. The payload slice is reused between
// calls; fn must copy it if it retains it. Replay stops at fn's first error
// and returns it.
func (w *WAL) Replay(fn func(seq uint64, payload []byte) error) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	// Flush so the active segment's tail is visible to the read below; the
	// segment list and record counts are snapshotted under the lock, then the
	// files are read without it, each only up to its snapshotted count:
	// segments never change once written, and Append only adds past that
	// point, so records appended during the replay (fn's own included) are
	// not replayed.
	if err := w.w.Flush(); err != nil {
		w.mu.Unlock()
		return fmt.Errorf("wal: replay flush: %w", err)
	}
	segs := make([]segmentInfo, 0, len(w.sealed)+1)
	segs = append(segs, w.sealed...)
	segs = append(segs, segmentInfo{path: w.f.Name(), firstSeq: w.firstSeq, lastSeq: w.seq})
	start := w.start
	w.mu.Unlock()

	for _, seg := range segs {
		if seg.firstSeq < start.Segment {
			continue
		}
		off, seq0 := int64(0), seg.firstSeq
		if seg.firstSeq == start.Segment {
			off, seq0 = start.Offset, start.Seq
		}
		_, _, err := scanSegment(seg.path, off, false, seg.records(seq0), func(i int, payload []byte) error {
			w.m.replayRecords.Inc()
			return fn(seq0+uint64(i), payload)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Close flushes, fsyncs, and closes the active segment. The WAL cannot be
// used afterwards.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("wal: close flush: %w", err)
	}
	if err := w.fsync(w.f); err != nil {
		w.f.Close()
		return fmt.Errorf("wal: close fsync: %w", err)
	}
	return w.f.Close()
}
