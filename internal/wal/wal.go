// Package wal implements the write-ahead log behind the engine's streaming
// ingest path. Every mutation is appended as a length-prefixed,
// CRC32C-checksummed record before it is acknowledged; after a crash the
// engine replays the log on top of the last snapshot, so no acknowledged
// write is lost. Segments rotate at a byte bound; the log is the one
// durable record of ingested evidence, so no segment is ever deleted.
//
// On-disk format, little-endian, per record:
//
//	[4B payload length][4B CRC32-C of payload][payload bytes]
//
// Segment files are named wal-%016x.log where the hex field is the sequence
// number of the segment's first record; sequence numbers are global,
// 1-based, and dense, so (filename, record ordinal) recovers every record's
// sequence without an index file.
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
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	return o
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
}

// records is the number of records the segment held when seg was taken.
func (seg segmentInfo) records() int {
	if seg.lastSeq < seg.firstSeq {
		return 0
	}
	return int(seg.lastSeq - seg.firstSeq + 1)
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
func Open(dir string, opts Options) (*WAL, error) {
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

	w := &WAL{dir: dir, opts: opts}
	// Scan every segment to validate it and learn its record count. Only the
	// last segment may end in a torn record; earlier segments were sealed by
	// a rotation, after which nothing ever wrote to them again.
	for i := range segs {
		last := i == len(segs)-1
		n, validBytes, err := scanSegment(segs[i].path, last, -1, nil)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			segs[i].lastSeq = 0
		} else {
			segs[i].lastSeq = segs[i].firstSeq + uint64(n) - 1
		}
		// Sequences are dense, so a sealed segment ends where the next begins.
		if !last && segs[i].firstSeq+uint64(n) != segs[i+1].firstSeq {
			return nil, fmt.Errorf("%w: %s: %d records, but the next segment starts at sequence %d",
				ErrCorrupt, segs[i].path, n, segs[i+1].firstSeq)
		}
		if last {
			if fi, err := os.Stat(segs[i].path); err == nil && fi.Size() > validBytes {
				tornTailTruncations.Inc()
				if err := os.Truncate(segs[i].path, validBytes); err != nil {
					return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", segs[i].path, err)
				}
			}
			w.size = validBytes
		}
		if n > 0 {
			w.seq = segs[i].lastSeq
		} else {
			// Empty segment (rotation or fresh creation, then crash before
			// any append): the last sequence is still firstSeq-1.
			w.seq = segs[i].firstSeq - 1
		}
	}

	if len(segs) == 0 {
		// Fresh log: first record will be sequence 1.
		if err := w.openSegment(1); err != nil {
			return nil, err
		}
	} else {
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
	return w, nil
}

// scanSegment is the log's one frame reader. It reads a segment's records in
// order, returning how many are valid and the byte offset just past the last
// one. It stops after limit records (a negative limit reads to the end of the
// file) and, when fn is non-nil, hands it each record's ordinal in the
// segment and its payload; the payload slice is reused between calls, and
// fn's first error stops the scan and is returned as is. With tolerateTail
// set, a partial or checksum-failing record at the very end of the file is
// treated as a torn write (the scan stops cleanly before it); any other
// damage, and any damage at all with tolerateTail unset, returns ErrCorrupt.
func scanSegment(path string, tolerateTail bool, limit int, fn func(i int, payload []byte) error) (records int, validBytes int64, err error) {
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
	br := bufio.NewReader(f)
	var (
		head [headerSize]byte
		buf  []byte
		off  int64
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
// the given sequence number.
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
	first = w.seq + 1
	w.seq += uint64(len(payloads))
	if err := w.syncLocked(); err != nil {
		return 0, err
	}
	appendsTotal.Add(int64(len(payloads)))
	appendBytes.Add(int64(len(b)))
	appendDuration.Record(time.Since(start))
	return first, nil
}

// syncLocked applies the fsync policy after an append. Callers hold w.mu.
func (w *WAL) syncLocked() error {
	switch w.opts.Policy {
	case FsyncAlways:
		if err := w.w.Flush(); err != nil {
			return fmt.Errorf("wal: flush: %w", err)
		}
		if err := w.fsync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
	case FsyncInterval:
		// Flush to the kernel on every append (surviving process death),
		// fsync at most once per interval (bounding power-loss exposure).
		if err := w.w.Flush(); err != nil {
			return fmt.Errorf("wal: flush: %w", err)
		}
		if now := time.Now(); now.Sub(w.lastSync) >= w.opts.Interval {
			if err := w.fsync(); err != nil {
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

// fsync syncs the active segment to disk. It is the log's only call to
// File.Sync, so dlinfma_wal_fsyncs_total and the fsync duration family see
// every sync: the policy's, rotation's, Sync's and Close's. Callers hold w.mu.
func (w *WAL) fsync() error {
	start := time.Now()
	err := w.f.Sync()
	fsyncDuration.Record(time.Since(start))
	fsyncsTotal.Inc()
	return err
}

// rotateLocked seals the active segment and opens a fresh one.
func (w *WAL) rotateLocked() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("wal: rotate flush: %w", err)
	}
	if err := w.fsync(); err != nil {
		return fmt.Errorf("wal: rotate fsync: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	w.sealed = append(w.sealed, segmentInfo{
		path:     w.f.Name(),
		firstSeq: w.firstSeq,
		lastSeq:  w.seq,
	})
	rotationsTotal.Inc()
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
	if err := w.fsync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// LastSeq returns the sequence number of the most recently appended record
// (0 if the log is empty).
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Replay calls fn for every record in sequence order, from the oldest
// retained segment through the active one. The payload slice is reused
// between calls; fn must copy it if it retains it. Replay stops at fn's
// first error and returns it.
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
	w.mu.Unlock()

	for _, seg := range segs {
		_, _, err := scanSegment(seg.path, false, seg.records(), func(i int, payload []byte) error {
			replayRecords.Inc()
			return fn(seg.firstSeq+uint64(i), payload)
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
	if err := w.fsync(); err != nil {
		w.f.Close()
		return fmt.Errorf("wal: close fsync: %w", err)
	}
	return w.f.Close()
}
