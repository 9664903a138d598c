package engine

import (
	"bytes"
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

// A seal record (tag 0x05) is one shard's seal of one pool window, kept as
// what the seal made (core.SealResult): the window's clusters of more than
// one stay, each its centroid and its stays in merge order, and the items
// the pool merge created and kept, each its id, centroid, weight and the
// ids it took in. The shard's sealer appends it to the window log as it
// finishes the window, so it may land before or after the window record
// that holds the window's cut. A restart indexes the seal records by their
// headers before it delivers a window (indexSealRecords), and a shard's n-th
// seal decodes and installs the last record of key (shard, shard count,
// router precision, cutoff) and ordinal n instead of clustering, if it was
// made over the same stays and pool (core.InstallWindow). Little-endian,
// each uvarint the shortest of at most MaxInt32:
//
//	0x05, shard u32, shards u32, precision u32, cutoff f64, ordinal u64,
//	stays u32, stay checksum u64, pool ids u64,
//	u32 window clusters × (centroid f64 f64, uvarint stays × uvarint stay),
//	u32 pool items × (uvarint id - pool ids, centroid f64 f64,
//	                  uvarint weight, uvarint ids × uvarint id)
//
// Tag 0x04 is the retired seal record that held the seal's merge pairs
// instead; a restart skips it and clusters its window.
//
// Nothing in the key or the guards describes the clustering that made a
// record, and an install checks ids, membership and weights but not the
// centroids. A change to what cluster.MergeNew or
// cluster.HierarchicalWeighted produce (tie-breaks, the centroid formula,
// the cutoff rule) or to the pool merge in core must therefore retire this
// tag as 0x04 was retired: take the next free tag, skip the old one in the
// window log, and its windows are clustered once by the new build.
const (
	walTagSeal        byte = 0x05
	walTagRetiredSeal byte = 0x04
)

// sealKey is the topology and cutoff a seal was made under; a restart
// under another one finds none of the records and clusters every window.
type sealKey struct {
	shard, shards, precision int
	cutoff                   float64
}

// sealRecord is a decoded seal record: its key, the shard's seal ordinal
// (counted from 0 since the window log was opened), and what the seal made.
type sealRecord struct {
	key     sealKey
	ordinal uint64
	res     core.SealResult
}

// appendSealRecord appends rec's payload to b. Pool item weights are counts
// of stays, written as integers.
func appendSealRecord(b []byte, rec *sealRecord) []byte {
	b = append(b, walTagSeal)
	for _, v := range [3]int{rec.key.shard, rec.key.shards, rec.key.precision} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	b = appendFloats(b, rec.key.cutoff)
	b = binary.LittleEndian.AppendUint64(b, rec.ordinal)
	res := &rec.res
	b = binary.LittleEndian.AppendUint32(b, uint32(res.Stays))
	b = binary.LittleEndian.AppendUint64(b, res.StaySum)
	b = binary.LittleEndian.AppendUint64(b, uint64(res.PoolIDs))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(res.Window)))
	for _, c := range res.Window {
		b = appendFloats(b, c.Centroid.X, c.Centroid.Y)
		b = appendIDs(b, c.Members)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(res.Pool)))
	for _, m := range res.Pool {
		b = binary.AppendUvarint(b, uint64(m.ID-res.PoolIDs))
		b = appendFloats(b, m.Centroid.X, m.Centroid.Y)
		b = binary.AppendUvarint(b, uint64(m.Weight))
		b = appendIDs(b, m.Members)
	}
	return b
}

// appendIDs appends a uvarint count, then each id as a uvarint.
func appendIDs(b []byte, ids []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id))
	}
	return b
}

// readSealHeader reads a seal record's tag, key and ordinal.
func readSealHeader(r *windowReader) (sealKey, uint64) {
	if p := r.take(1); r.err == nil && p[0] != walTagSeal {
		r.err = errors.New("not a seal record")
	}
	return sealKey{shard: int(r.u32()), shards: int(r.u32()), precision: int(r.u32()), cutoff: r.f64()}, r.u64()
}

// decodeSealRecord reads a 0x05 payload. The stay and pool id counts must
// be at most MaxInt32, every count must fit in the bytes that follow it,
// and nothing may trail the pool items; whether the clusters and items fit
// a window is core.InstallWindow's to check. What it accepts,
// appendSealRecord writes byte for byte.
func decodeSealRecord(payload []byte) (*sealRecord, error) {
	r := &windowReader{b: payload}
	rec := &sealRecord{}
	rec.key, rec.ordinal = readSealHeader(r)
	res := &rec.res
	stays, sum, ids := r.u32(), r.u64(), r.u64()
	if r.err == nil && (stays > math.MaxInt32 || ids > math.MaxInt32) {
		r.err = fmt.Errorf("seal record of %d stays over %d pool ids", stays, ids)
	}
	res.Stays, res.StaySum, res.PoolIDs = int(stays), sum, int(ids)
	var arena []int
	if n := r.count(2*8 + 1); n > 0 {
		res.Window = make([]cluster.Cluster, n)
		for i := range res.Window {
			c := &res.Window[i]
			c.Centroid = r.point()
			c.Members = r.ids(&arena)
			c.Weight = float64(len(c.Members))
		}
	}
	if n := r.count(1 + 2*8 + 1 + 1); n > 0 {
		res.Pool = make([]cluster.Merged, n)
		for i := range res.Pool {
			m := &res.Pool[i]
			m.ID = res.PoolIDs + r.id()
			m.Centroid = r.point()
			m.Weight = float64(r.id())
			m.Members = r.ids(&arena)
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

// id reads a shortest uvarint of at most MaxInt32.
func (r *windowReader) id() int {
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
	return int(v)
}

// ids reads a uvarint count that the bytes after it can hold, then that
// many ids into the front of arena, which it advances past them; nil for
// none. An arena too short is replaced by one for an id every two bytes
// left, about what a seal record holds.
func (r *windowReader) ids(arena *[]int) []int {
	n := r.id()
	if r.err == nil && n > len(r.b) {
		r.err = fmt.Errorf("record claims %d ids in %d bytes", n, len(r.b))
	}
	if r.err != nil || n == 0 {
		return nil
	}
	if len(*arena) < n {
		*arena = make([]int, max(n, len(r.b)/2))
	}
	out := (*arena)[:n:n]
	*arena = (*arena)[n:]
	for i := range out {
		out[i] = r.id()
	}
	return out
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
	// was made over its window and pool: the log's history ends or diverged
	// there, and no later record of it can be.
	found map[uint64]foundSeal
	// err is the first found record that did not fit its seal. The builder
	// is then partly installed: the sealer seals nothing more, and OpenWAL
	// fails.
	err error
	// installed and clustered count the shard's seals since the log was
	// opened, by how they were made.
	installed, clustered int
	buf                  []byte
	// beforeRecord, when set (tests), runs after a clustered seal, before
	// its record is appended.
	beforeRecord func()
}

// foundSeal is a seal record as indexSealRecords found it: its sequence in
// the window log and its payload, decoded by the seal it is for.
type foundSeal struct {
	seq     uint64
	payload []byte
}

// seal seals the builder's pending window. With the window log attached it
// installs the window's seal record if the restart found one made over
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
		rec, err := decodeSealRecord(f.payload)
		installed := false
		if err == nil {
			installed, err = ev.builder.InstallWindow(ctx, &rec.res)
		}
		if err != nil {
			sl.err = fmt.Errorf("engine: window log record %d: shard %d's seal %d does not fit: %w", f.seq, sl.key.shard, ord, err)
			return
		}
		if installed {
			sl.installed++
			installedSeals.Inc()
			return
		}
	}
	sl.found = nil
	res, _ := ev.builder.SealWindowResult(ctx)
	sl.clustered++
	if res == nil || sl.wins == nil {
		return
	}
	if sl.beforeRecord != nil {
		sl.beforeRecord()
	}
	sl.buf = appendSealRecord(sl.buf[:0], &sealRecord{key: sl.key, ordinal: ord, res: *res})
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
// appended the newer one). It reads each seal record's header only: the
// seal the record is for decodes the rest. It skips retired seal records
// and leaves window records for the delivery pass, and it refuses anything
// else, and a seal record whose header is cut short, naming its sequence.
func (e *Engine) indexSealRecords(wins *wal.WAL) ([]map[uint64]foundSeal, error) {
	found := make([]map[uint64]foundSeal, len(e.shards))
	err := wins.Replay(func(seq uint64, payload []byte) error {
		var tag byte
		if len(payload) > 0 {
			tag = payload[0]
		}
		switch tag {
		case walTagWindow, walTagRetiredSeal:
			return nil
		case walTagSeal:
		default:
			ent, err := decodeWALRecord(payload)
			if err == nil {
				err = fmt.Errorf("%s record in the window log", ent.kind())
			}
			return fmt.Errorf("engine: window log record %d: %w", seq, err)
		}
		r := &windowReader{b: payload}
		key, ord := readSealHeader(r)
		if r.err != nil {
			return fmt.Errorf("engine: window log record %d: %w", seq, r.err)
		}
		if i := key.shard; i < len(e.shards) && key == e.sealKey(i) {
			if found[i] == nil {
				found[i] = make(map[uint64]foundSeal)
			}
			found[i][ord] = foundSeal{seq: seq, payload: bytes.Clone(payload)}
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
// seals were installed and clustered since the window log was opened and
// the first found record that did not fit.
func (e *Engine) endSealReplay() (installed, clustered int, err error) {
	for _, sh := range e.shards {
		ev := sh.ev
		ev.sealer.Lock()
		if sl := ev.seals; sl != nil {
			sl.found = nil
			installed += sl.installed
			clustered += sl.clustered
			err = errors.Join(err, sl.err)
		}
		ev.sealer.Unlock()
	}
	return installed, clustered, err
}
