package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dlinfma/internal/cluster"
	"dlinfma/internal/core"
	"dlinfma/internal/obs"
	"dlinfma/internal/wal"
)

// A seal record (tag 0x04) is one shard's seal of one pool window, kept as
// the seal's decisions (core.SealDecisions): the merges of the window's own
// clustering, then those of its candidates into the pool, each pair in
// merge order. The shard's sealer appends it to the window log as it
// finishes the window, so it may land before or after the window record
// that holds the window's cut. A restart indexes the seal records before it
// delivers a window (indexSealRecords), and a shard's n-th seal replays the
// last record of key (shard, shard count, router precision, cutoff) and
// ordinal n instead of clustering, if it was decided over the same stays
// and pool (core.ReplayWindow). Little-endian:
//
//	0x04, shard u32, shards u32, precision u32, cutoff f64, ordinal u64,
//	stays u32, stay checksum u64, pool ids u64,
//	u32 window merges × (a, b uvarint), u32 pool merges × (a, b uvarint)
const walTagSeal byte = 0x04

// sealKey is the topology and cutoff a seal was decided under; a restart
// under another one finds none of the records and clusters every window.
type sealKey struct {
	shard, shards, precision int
	cutoff                   float64
}

// sealRecord is a decoded seal record: its key, the shard's seal ordinal
// (counted from 0 since the window log was opened), and the decisions.
type sealRecord struct {
	key     sealKey
	ordinal uint64
	dec     core.SealDecisions
}

// appendSealRecord appends rec's payload to b.
func appendSealRecord(b []byte, rec *sealRecord) []byte {
	b = append(b, walTagSeal)
	for _, v := range [3]int{rec.key.shard, rec.key.shards, rec.key.precision} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	b = appendFloats(b, rec.key.cutoff)
	b = binary.LittleEndian.AppendUint64(b, rec.ordinal)
	d := &rec.dec
	b = binary.LittleEndian.AppendUint32(b, uint32(d.Stays))
	b = binary.LittleEndian.AppendUint64(b, d.StaySum)
	b = binary.LittleEndian.AppendUint64(b, uint64(d.PoolIDs))
	for _, pairs := range [2][]cluster.Pair{d.Window, d.Pool} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(pairs)))
		for _, p := range pairs {
			b = binary.AppendUvarint(b, uint64(p.A))
			b = binary.AppendUvarint(b, uint64(p.B))
		}
	}
	return b
}

// decodeSealRecord reads a 0x04 payload. An id must be a shortest uvarint
// of at most MaxInt32, the stay and pool id counts at most MaxInt32, a
// merge count must fit in the bytes that follow it, and nothing may trail
// the pool merges. What it accepts, appendSealRecord writes byte for byte.
func decodeSealRecord(payload []byte) (*sealRecord, error) {
	r := &windowReader{b: payload}
	if len(r.take(1)) == 0 || payload[0] != walTagSeal {
		return nil, errors.New("not a seal record")
	}
	rec := &sealRecord{key: sealKey{shard: int(r.u32()), shards: int(r.u32()), precision: int(r.u32()), cutoff: r.f64()}, ordinal: r.u64()}
	d := &rec.dec
	stays, sum, ids := r.u32(), r.u64(), r.u64()
	if r.err == nil && (stays > math.MaxInt32 || ids > math.MaxInt32) {
		r.err = fmt.Errorf("seal record of %d stays over %d pool ids", stays, ids)
	}
	d.Stays, d.StaySum, d.PoolIDs = int(stays), sum, int(ids)
	for _, pairs := range [2]*[]cluster.Pair{&d.Window, &d.Pool} {
		if n := r.count(2); n > 0 {
			*pairs = make([]cluster.Pair, n)
			for i := range *pairs {
				(*pairs)[i] = cluster.Pair{A: r.id(), B: r.id()}
			}
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%d bytes trail the seal record", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return rec, nil
}

// id reads a merge's id: a shortest uvarint of at most MaxInt32.
func (r *windowReader) id() int32 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n <= 0:
		r.err = errors.New("record cut short in an id")
	case n > 1 && r.b[n-1] == 0:
		r.err = errors.New("an id not in its shortest encoding")
	case v > math.MaxInt32:
		r.err = fmt.Errorf("id %d past MaxInt32", v)
	}
	if r.err != nil {
		return 0
	}
	r.b = r.b[n:]
	return int32(v)
}

// sealLog is one shard's side of the seal records, owned by its sealer
// (evidence.sealer): the window log its seals are appended to, and while
// OpenWAL runs, the records the restart found for the shard.
type sealLog struct {
	// wins is the window log, nil once an append failed: the shard's later
	// seals then go unrecorded, and a restart clusters them.
	wins *wal.WAL
	key  sealKey
	log  *obs.Logger
	// next is the ordinal of the shard's next seal.
	next uint64
	// found holds, by ordinal, the last seal record of key the window log
	// held when OpenWAL began, until OpenWAL returns or a seal has none that
	// applies: the log's history ends or diverged there, and no later record
	// of it can apply.
	found map[uint64]foundSeal
	// err is the first found record that did not apply. The builder is then
	// partly merged: the sealer seals nothing more, and OpenWAL fails.
	err error
	// replayed and clustered count the shard's seals since the log was
	// opened, by how they were made.
	replayed, clustered int
	buf                 []byte
	// beforeRecord, when set (tests), runs after a clustered seal, before
	// its record is appended.
	beforeRecord func()
}

// foundSeal is a seal record as indexSealRecords found it: its sequence in
// the window log and its decisions.
type foundSeal struct {
	seq uint64
	dec core.SealDecisions
}

// seal seals the builder's pending window. With the window log attached it
// replays the window's seal record if the restart found one decided over
// this window and pool, and otherwise clusters the window and appends its
// record. Callers hold sealer.
func (ev *evidence) seal(ctx context.Context) {
	sl := ev.seals
	if sl == nil {
		_ = ev.builder.SealWindow(ctx)
		return
	}
	if sl.err != nil {
		return
	}
	ord := sl.next
	sl.next++
	if f, ok := sl.found[ord]; ok {
		delete(sl.found, ord)
		applied, err := ev.builder.ReplayWindow(ctx, &f.dec)
		if err != nil {
			sl.err = fmt.Errorf("engine: window log record %d: shard %d's seal %d does not apply: %w", f.seq, sl.key.shard, ord, err)
			return
		}
		if applied {
			sl.replayed++
			replayedSeals.Inc()
			return
		}
	}
	sl.found = nil
	dec, _ := ev.builder.SealWindowDecisions(ctx)
	sl.clustered++
	if dec == nil || sl.wins == nil {
		return
	}
	if sl.beforeRecord != nil {
		sl.beforeRecord()
	}
	sl.buf = appendSealRecord(sl.buf[:0], &sealRecord{key: sl.key, ordinal: ord, dec: *dec})
	if _, err := sl.wins.Append(sl.buf); err != nil {
		sl.log.Error("seal record append failed; a restart re-clusters this shard's windows from here", "err", err)
		sl.wins = nil
	}
}

// sealKey is the key shard i's seal records are written and found under.
func (e *Engine) sealKey(i int) sealKey {
	k := sealKey{shard: i, shards: len(e.shards), cutoff: e.cfg.Core.ClusterDistance}
	if e.router != nil {
		k.precision = e.router.Precision()
	}
	return k
}

// indexSealRecords reads the window log once, before any window is
// delivered, and returns per shard the seal records of its key by ordinal,
// the last one of each ordinal winning (a restart that re-clustered a seal
// appended the newer one). It refuses a record the window log does not
// hold — anything but a window or a seal record — and a seal record that
// does not decode, naming its sequence. Window records are left for the
// delivery pass.
func (e *Engine) indexSealRecords(wins *wal.WAL) ([]map[uint64]foundSeal, error) {
	found := make([]map[uint64]foundSeal, len(e.shards))
	err := wins.Replay(func(seq uint64, payload []byte) error {
		if len(payload) > 0 && payload[0] == walTagWindow {
			return nil
		}
		ent, err := decodeWALRecord(payload)
		if err == nil && ent.seal == nil {
			err = fmt.Errorf("%s record in the window log", ent.kind())
		}
		if err != nil {
			return fmt.Errorf("engine: window log record %d: %w", seq, err)
		}
		if i := ent.seal.key.shard; i < len(e.shards) && ent.seal.key == e.sealKey(i) {
			if found[i] == nil {
				found[i] = make(map[uint64]foundSeal)
			}
			found[i][ent.seal.ordinal] = foundSeal{seq: seq, dec: ent.seal.dec}
		}
		return nil
	})
	return found, err
}

// attachSeals points every shard's sealer at the window log, with the seal
// records found for it; nil wins detaches them.
func (e *Engine) attachSeals(wins *wal.WAL, found []map[uint64]foundSeal) {
	for i, sh := range e.shards {
		var sl *sealLog
		if wins != nil {
			sl = &sealLog{wins: wins, key: e.sealKey(i), log: sh.log, found: found[i]}
		}
		sh.ev.sealer.Lock()
		sh.ev.seals = sl
		sh.ev.sealer.Unlock()
	}
}

// endSealReplay ends a restart's use of the seal records: it waits for the
// seals, drops what is left of the found records, and returns how many
// seals were replayed and clustered since the window log was opened and
// the first found record that did not apply.
func (e *Engine) endSealReplay() (replayed, clustered int, err error) {
	for _, sh := range e.shards {
		ev := sh.ev
		ev.sealer.Lock()
		if sl := ev.seals; sl != nil {
			sl.found = nil
			replayed += sl.replayed
			clustered += sl.clustered
			err = errors.Join(err, sl.err)
		}
		ev.sealer.Unlock()
	}
	return replayed, clustered, err
}
