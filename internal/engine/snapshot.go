package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"dlinfma/internal/core"
	"dlinfma/internal/deploy"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/obs"
	"dlinfma/internal/peer"
)

// Snapshot layout. A one-shard engine's snapshot is its shard's version-1
// document. An engine with several shards writes a version-2 manifest: the
// routing state plus one entry per shard, the shard's version-1 document
// inline or null for a shard that has never served. A stream and a file
// carry the same document; only a file's shard documents say how many trips
// they were trained on. Restore decodes a document once and dispatches on
// its version; a version-1 document restores into several shards by routing
// its addresses.
const (
	snapshotVersionSingle  = 1
	snapshotVersionSharded = 2
)

// snapshot is the version-1 document, one shard's serialized serving state:
// the address-level answers of its frozen store (string-keyed like the
// dataset file format) with their confidence stamps, the address metadata
// the building and geocode fallbacks are a pure function of, and the trained
// matcher via core's own serialization. Restoring it rebuilds the frozen
// store it was written from, answer for answer. The evidence — trips,
// candidate pool, truth — is not included: the WAL is its durable record,
// and a restart replays the whole log on top of the restored document, so
// the next re-inference trains on everything the snapshotted one did. Trips
// says how many of the shard's trips, the first ones in ingest order, the
// served state was trained on: a restore starts the shard's backlog there,
// so the replayed trips it covers are not pending again. Only a snapshot
// file, which is restored beside the same log, carries it; without it (a
// stream, a document older than the field) every replayed trip is pending.
// A restore without a log serves queries immediately but needs fresh ingest
// before the next re-inference.
type snapshot struct {
	Version   int                   `json:"version"`
	Name      string                `json:"name"`
	Addresses []model.AddressInfo   `json:"addresses"`
	Locations map[string][2]float64 `json:"locations"`
	// Confidences holds the non-zero top-1 probabilities behind Locations.
	// Documents written before the field existed restore with confidence 0
	// (unknown) everywhere.
	Confidences map[string]float32 `json:"confidences,omitempty"`
	Trips       int                `json:"trips,omitempty"`
	Matcher     json.RawMessage    `json:"matcher,omitempty"`
}

// manifestHead is the version-2 document's routing state, as written. The
// writer marshals it and appends the shard list itself (writeSnapshot), so
// the list has no field here; a shard that has never served has a null
// entry and simply stays cold after restore.
type manifestHead struct {
	Version    int    `json:"version"`
	Name       string `json:"name,omitempty"`
	ShardCount int    `json:"shard_count"`
	// Precision records the router's geohash precision for operators;
	// restored addresses keep their pinned shard from AddrShards either way.
	Precision  int            `json:"precision,omitempty"`
	AddrShards map[string]int `json:"addr_shards"`
}

// snapshotDoc is what encoding/json decodes a document into: the union of
// both versions' fields, so the document is parsed once whatever its version
// turns out to be. A manifest's inline shard documents stay raw: each is a
// version-1 document of its own and is read like one (decodeSnapshot).
type snapshotDoc struct {
	snapshot
	ShardCount int               `json:"shard_count"`
	AddrShards map[string]int    `json:"addr_shards"`
	Shards     []json.RawMessage `json:"shards"`
}

// errNothingToSnapshot is peer.ErrNotReady with the engine's wording: the
// one error a snapshot fan-out skips a shard on.
var errNothingToSnapshot = fmt.Errorf("engine: nothing to snapshot before the first re-inference: %w", peer.ErrNotReady)

// errShardFilesManifest refuses the manifest earlier builds' SaveSnapshotFile
// wrote, which named one sibling file per shard instead of carrying the
// shards' documents.
var errShardFilesManifest = errors.New("engine: manifest carries no shard documents: it is the shard-files form earlier builds saved, which this build does not read; " +
	"convert it by fetching GET /v1/snapshot from the build that wrote it and saving the body as the snapshot file; once that file restores, its <base>.*.shardN siblings can be deleted")

// errRemoteSnapshotFiles rejects restore and snapshot-file paths in the
// remote topology: those install serving state into Shard structs this
// process does not own. Each shard process restores its own snapshot;
// WriteSnapshot (the read side) still works everywhere through the seam.
var errRemoteSnapshotFiles = errors.New("engine: snapshot restore requires in-process shards; restore each shard process from its own snapshot")

// WriteSnapshot streams the shard's serving state to w as a version-1
// document, without its trip count: that counts trips of this process's
// log, and a stream goes to another process. It fails with peer.ErrNotReady
// before the first completed re-inference or restore.
func (s *Shard) WriteSnapshot(w io.Writer) error { return s.writeSnapshot(w, false) }

// saveSnapshot writes the document SaveSnapshotFile keeps beside the log,
// trip count included.
func (s *Shard) saveSnapshot(w io.Writer) error { return s.writeSnapshot(w, true) }

func (s *Shard) writeSnapshot(w io.Writer, withTrips bool) error {
	sv := s.sv.Load()
	if sv == nil {
		return errNothingToSnapshot
	}
	n := sv.frozen.Inferred()
	c := s.ev.counts.Load()
	sn := snapshot{
		Version:   snapshotVersionSingle,
		Name:      c.name,
		Addresses: c.addrs,
		Locations: make(map[string][2]float64, n),
	}
	if withTrips {
		sn.Trips = sv.trips
	}
	sv.frozen.Each(func(id model.AddressID, a deploy.FrozenAnswer) {
		if a.Src != deploy.SourceAddress {
			return
		}
		k := fmt.Sprint(id)
		sn.Locations[k] = [2]float64{a.Loc.X, a.Loc.Y}
		if a.Conf > 0 {
			if sn.Confidences == nil {
				sn.Confidences = make(map[string]float32, n)
			}
			sn.Confidences[k] = a.Conf
		}
	})
	if sv.matcher != nil {
		var buf bytes.Buffer
		if err := sv.matcher.Save(&buf); err != nil {
			return err
		}
		sn.Matcher = json.RawMessage(buf.Bytes())
	}
	return json.NewEncoder(w).Encode(&sn)
}

// snapshotLoad is one version-1 document on its way into the engine: its rows
// filed, as they are decoded, in the writable store of the shard that will
// serve them, and its matcher decoded once for every shard it goes to.
// Whichever decoder reads the document feeds every address, then calls
// register, then feeds locations and confidences in that order; nothing is
// installed until install, which cannot fail.
type snapshotLoad struct {
	e *Engine
	// only is the shard whose own document this is (a manifest entry, or the
	// one shard of an unrouted engine); -1 routes every row through the
	// router, so each shard serves its slice of the old state (sharing the
	// old model) until its next retrain.
	only  int
	parts []shardLoad
	// route pins every routed address to its shard; nil unless only is -1.
	route map[model.AddressID]int
	name  string
	// trips is the document's trip count, which only the shard the document
	// belongs to (only >= 0) takes.
	trips int
	// matcherJSON is the document's matcher as read; matcher is the model
	// loadMatcher decodes from it.
	matcherJSON []byte
	matcher     *core.LocMatcher
	// decoder and start label the "snapshot restored" log line.
	decoder string
	start   time.Time
}

// shardLoad is one shard's share of a snapshotLoad: the store to freeze, the
// addresses that seed the shard's ingest state — as decoded until register,
// then as registered — and the number of locations filed.
type shardLoad struct {
	store *deploy.Store
	addrs []model.AddressInfo
	locs  int
}

// newLoad readies a load for about hint addresses.
func (e *Engine) newLoad(only, hint int) *snapshotLoad {
	l := &snapshotLoad{e: e, only: only, parts: make([]shardLoad, len(e.shards)), decoder: "scan", start: time.Now()}
	into := l.parts
	if only >= 0 {
		into = l.parts[only : only+1]
	} else {
		l.route = make(map[model.AddressID]int, hint)
		hint /= len(into)
	}
	for i := range into {
		into[i] = shardLoad{store: deploy.NewStore(), addrs: make([]model.AddressInfo, 0, hint)}
	}
	return l
}

func (l *snapshotLoad) address(a model.AddressInfo) {
	sh := l.only
	if sh < 0 {
		if _, ok := l.route[a.ID]; ok {
			return // named before: the first naming wins on every shard
		}
		sh = l.e.router.AddressShard(a)
		l.route[a.ID] = sh
	}
	p := &l.parts[sh]
	p.addrs = append(p.addrs, a)
}

// register files every share's addresses in its store, once the document's
// address array has been read: one pass into a store grown to their count,
// the first of several naming one address winning. The registered list is
// what the shard's evidence takes, so the registry the next snapshot writes
// holds the addresses the restored store answers from.
func (l *snapshotLoad) register() {
	for i := range l.parts {
		if p := &l.parts[i]; p.store != nil {
			p.addrs = p.store.Register(p.addrs)
		}
	}
}

func (l *snapshotLoad) location(id model.AddressID, loc geo.Point) {
	sh := l.only
	if sh < 0 {
		var ok bool
		if sh, ok = l.route[id]; !ok {
			// Location without address metadata: route by the point itself.
			sh = l.e.router.ShardOfPoint(loc)
			l.route[id] = sh
		}
	}
	p := &l.parts[sh]
	p.store.Put(id, loc)
	p.locs++
}

func (l *snapshotLoad) confidence(id model.AddressID, conf float32) {
	sh := l.only
	if sh < 0 {
		var ok bool
		if sh, ok = l.route[id]; !ok {
			return // a stamp with no answer to ride
		}
	}
	l.parts[sh].store.SetConfidence(id, conf)
}

// fill feeds a document encoding/json decoded.
func (l *snapshotLoad) fill(sn *snapshot) error {
	l.name, l.trips, l.matcherJSON, l.decoder = sn.Name, sn.Trips, sn.Matcher, "json"
	for _, a := range sn.Addresses {
		l.address(a)
	}
	l.register()
	for _, k := range sortedKeys(sn.Locations) {
		id, err := parseAddressKey(k)
		if err != nil {
			return err
		}
		v := sn.Locations[k]
		l.location(id, geo.Point{X: v[0], Y: v[1]})
	}
	for _, k := range sortedKeys(sn.Confidences) {
		id, err := parseAddressKey(k)
		if err != nil {
			return err
		}
		l.confidence(id, sn.Confidences[k])
	}
	return nil
}

// sortedKeys returns a decoded map's keys in byte order, the order
// encoding/json writes them in. Two keys can name one address ("7" and
// "07"); taken in map order, which of them a restore kept would differ from
// one restore of the same document to the next. In byte order the later
// one wins, as a later Put does.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// loadMatcher decodes the document's matcher, if it carries one.
func (l *snapshotLoad) loadMatcher() (err error) {
	if len(l.matcherJSON) > 0 {
		l.matcher, err = core.LoadLocMatcher(bytes.NewReader(l.matcherJSON))
	}
	return err
}

// install freezes every share into its shard and, for a routed document,
// publishes where each address went. The one shard of an unrouted engine and
// the owner of a manifest entry take their document even when it is empty;
// a routed document leaves a shard that got nothing as it was.
func (l *snapshotLoad) install() {
	for i := range l.parts {
		p := &l.parts[i]
		if p.store == nil || l.only < 0 && len(p.addrs) == 0 && p.locs == 0 {
			continue
		}
		l.e.shards[i].restore(l, p)
	}
	if l.route != nil {
		l.e.pinRoutes(l.route)
	}
}

// pinRoutes adds restored address → shard pins to the routing table.
func (e *Engine) pinRoutes(route map[model.AddressID]int) {
	e.mu.Lock()
	for id, sh := range route {
		e.addrShard[id] = sh
	}
	e.publishRoutesLocked()
	e.mu.Unlock()
}

// restore freezes the shard's share of a decoded version-1 document back
// into the serving state it was written from and swaps it in: the
// address-level answers and their confidences as stored, the
// building/geocode fallbacks recomputed from the address metadata, the
// trained matcher available again. The restored addresses also seed the
// shard's evidence so later windows extend the same address universe, and
// the shard's own document starts its backlog past the trips it was trained
// on; a routed document's shares say nothing of any one shard's trips.
func (s *Shard) restore(l *snapshotLoad, p *shardLoad) {
	s.ev.register(l.name, p.addrs)
	sv := &serving{frozen: freeze(p.store), matcher: l.matcher}
	if l.only >= 0 && l.trips > 0 {
		sv.trips = l.trips
		s.ev.served(l.trips)
	}
	s.publish(sv, swapKindRestore)
	s.log.Info("snapshot restored",
		"dataset", l.name, "addresses", len(p.addrs), "locations", sv.frozen.Inferred(),
		"decoder", l.decoder, "dur", time.Since(l.start))
}

// parseAddressKey decodes one of a snapshot's stringified address keys.
func parseAddressKey(k string) (model.AddressID, error) {
	id, err := model.ParseAddressID(k)
	if err != nil {
		return 0, fmt.Errorf("engine: bad snapshot address key %q", k)
	}
	return id, nil
}

// WriteSnapshot streams the serving state to w: the one shard's version-1
// document, or a version-2 manifest with every ready shard's document inline
// — fetched through the backend seam, so a remote topology assembles the
// same manifest from its shard processes' /v1/snapshot streams. No shard
// document carries its trip count. It fails with peer.ErrNotReady while no
// shard has anything to serve.
func (e *Engine) WriteSnapshot(w io.Writer) error {
	return counted(e.writeSnapshot(w, func(i int, w io.Writer) error { return e.backends[i].WriteSnapshot(w) }),
		snapshotSaveOK, snapshotSaveErr)
}

// SaveSnapshotFile writes the document WriteSnapshot streams, each shard
// document with its trip count, to path and nothing else, atomically and
// durably (writeFileAtomic): a failed save, or a crash mid-write, leaves the
// previous snapshot whole, and a completed save survives power loss. A save
// touches no WAL segment: the snapshot is the durable serving state and the
// log the durable evidence, and a restart needs both. The trip count says
// how many of the shard's trips in that log its served state was trained
// on.
func (e *Engine) SaveSnapshotFile(path string) error {
	err := errRemoteSnapshotFiles
	if !e.remote {
		err = writeFileAtomic(path, func(w io.Writer) error {
			return e.writeSnapshot(w, func(i int, w io.Writer) error { return e.shards[i].saveSnapshot(w) })
		})
	}
	return counted(err, snapshotSaveOK, snapshotSaveErr)
}

// writeSnapshot writes the snapshot document, taking shard i's document from
// shardDoc. Several shards' documents are all collected before the manifest
// is written, so a shard that fails — for any reason but never having
// served, which leaves its entry null — fails the snapshot before a byte of
// it reaches w. The manifest is the routing state as json.Marshal encodes it
// with the shard list spliced in before its closing brace: the bytes
// json.Encoder writes for the whole, without a second copy of every
// document in the encoder's buffer.
func (e *Engine) writeSnapshot(w io.Writer, shardDoc func(i int, w io.Writer) error) error {
	if !e.routed() {
		return shardDoc(0, w)
	}
	head, err := json.Marshal(e.newManifest())
	if err != nil {
		return err
	}
	out := [][]byte{head[:len(head)-1], []byte(`,"shards":[`)}
	ready := false
	for i := range e.backends {
		if i > 0 {
			out = append(out, []byte(","))
		}
		var buf bytes.Buffer
		err := shardDoc(i, &buf)
		if errors.Is(err, peer.ErrNotReady) {
			out = append(out, []byte("null"))
			continue
		}
		if err == nil && !json.Valid(buf.Bytes()) {
			err = errors.New("engine: shard snapshot is not JSON")
		}
		if err != nil {
			return e.shardErr(i, err)
		}
		ready = true
		out = append(out, bytes.TrimSpace(buf.Bytes()))
	}
	if !ready {
		return errNothingToSnapshot
	}
	out = append(out, []byte("]}\n"))
	for _, part := range out {
		if _, err := w.Write(part); err != nil {
			return err
		}
	}
	return nil
}

// counted counts one snapshot operation by its outcome and returns its
// error.
func counted(err error, ok, failed *obs.Counter) error {
	if err != nil {
		failed.Inc()
	} else {
		ok.Inc()
	}
	return err
}

// newManifest captures the engine's routing state.
func (e *Engine) newManifest() *manifestHead {
	e.mu.RLock()
	defer e.mu.RUnlock()
	m := &manifestHead{
		Version:    snapshotVersionSharded,
		Name:       e.name,
		ShardCount: len(e.backends),
		Precision:  e.router.Precision(),
		AddrShards: make(map[string]int, len(e.addrShard)),
	}
	for id, sh := range e.addrShard {
		m.AddrShards[fmt.Sprint(id)] = sh
	}
	return m
}

// writeFileAtomic streams write's output into a temp file in path's
// directory, fsyncs it, and renames it over path, then best-effort syncs the
// directory so the rename itself is durable. On any failure the previous
// file at path is untouched.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// RestoreSnapshot loads a snapshot stream written by WriteSnapshot (either
// version) and swaps the serving states it describes into place.
func (e *Engine) RestoreSnapshot(r io.Reader) error {
	var data []byte
	var err error
	if sized, ok := r.(interface{ Len() int }); ok {
		// An in-memory reader says how much it holds: one buffer of that
		// size, not io.ReadAll's growing series of them.
		data = make([]byte, sized.Len())
		_, err = io.ReadFull(r, data)
	} else {
		data, err = io.ReadAll(r)
	}
	if err != nil {
		err = fmt.Errorf("engine: read snapshot: %w", err)
	} else {
		err = e.restoreFrom(data)
	}
	return counted(err, snapshotRestoreOK, snapshotRestoreErr)
}

// LoadSnapshotFile restores from a file written by SaveSnapshotFile, or a
// body of GET /v1/snapshot saved as a file: they are one document.
func (e *Engine) LoadSnapshotFile(path string) error {
	data, err := os.ReadFile(path)
	if err == nil {
		err = e.restoreFrom(data)
	}
	return counted(err, snapshotRestoreOK, snapshotRestoreErr)
}

// decodeSnapshot reads one document. A version-1 document comes back as a
// filled load for shard only (-1: routed), its matcher decoded; anything
// else encoding/json accepts comes back as the decoded union for the caller
// to dispatch on.
//
// The strict reader goes first and takes exactly the documents the writers
// produce. What it declines — a manifest, but also a version-1 document
// somebody reformatted or edited — is decoded by encoding/json as every
// document used to be, so json remains what says which documents are valid
// and how an invalid one is reported; a version-1 document that needed it is
// counted, because it restores several times slower.
func (e *Engine) decodeSnapshot(data []byte, only int) (*snapshotLoad, *snapshotDoc, error) {
	var l *snapshotLoad
	if bytes.HasPrefix(data, []byte(snapshotHead)) { // else not worth sizing a load for
		hint := bytes.Count(data, []byte(snapshotAddressHead))
		if l = e.newLoad(only, hint); !scanSnapshot(data, l) {
			l = nil
		}
	}
	if l == nil {
		var doc snapshotDoc
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&doc); err != nil {
			return nil, nil, fmt.Errorf("engine: decode snapshot: %w", err)
		}
		if doc.Version != snapshotVersionSingle {
			return nil, &doc, nil
		}
		snapshotDecoderFallbacks.Inc()
		l = e.newLoad(only, len(doc.Addresses))
		if err := l.fill(&doc.snapshot); err != nil {
			return nil, nil, err
		}
	}
	if err := l.loadMatcher(); err != nil {
		return nil, nil, err
	}
	return l, nil, nil
}

// restoreFrom decodes the document and dispatches on its version. Unknown
// versions are rejected instead of silently mis-decoded.
func (e *Engine) restoreFrom(data []byte) error {
	if e.remote {
		return errRemoteSnapshotFiles
	}
	start := time.Now()
	defer func() { snapshotRestoreDuration.Record(time.Since(start)) }()
	all := -1 // a version-1 document restores into several shards by routing its addresses
	if !e.routed() {
		all = 0 // one shard takes it as is: it is that shard's own format
	}
	l, doc, err := e.decodeSnapshot(data, all)
	switch {
	case err != nil:
		return err
	case l != nil:
		l.install()
		e.adoptName(l.name)
		return nil
	case doc.Version == snapshotVersionSharded:
		return e.restoreManifest(doc)
	default:
		return fmt.Errorf("engine: unsupported snapshot version %d (max %d)", doc.Version, snapshotVersionSharded)
	}
}

// adoptName labels a still-unnamed engine after the restored dataset.
func (e *Engine) adoptName(name string) {
	e.mu.Lock()
	if e.name == "" {
		e.name = name
	}
	e.mu.Unlock()
}

// restoreManifest validates a version-2 manifest against the engine's
// topology, decodes every shard document it carries, matcher included, and
// only then installs its routing state and the shards' serving states.
// Decoding is all that can fail, so a manifest that fails leaves the engine
// as it was.
func (e *Engine) restoreManifest(doc *snapshotDoc) error {
	if len(doc.Shards) == 0 {
		return errShardFilesManifest
	}
	if doc.ShardCount != len(e.shards) {
		return fmt.Errorf("engine: manifest has %d shards, engine is configured with %d (restart with -shards %d)",
			doc.ShardCount, len(e.shards), doc.ShardCount)
	}
	// The writer lists every shard; a list of any other length would
	// restore some of its documents and silently drop the rest.
	if n := len(doc.Shards); n != doc.ShardCount {
		return fmt.Errorf("engine: manifest carries %d shard documents for %d shards", n, doc.ShardCount)
	}
	var route map[model.AddressID]int
	if e.routed() {
		route = make(map[model.AddressID]int, len(doc.AddrShards))
		for _, k := range sortedKeys(doc.AddrShards) {
			id, err := parseAddressKey(k)
			if err != nil {
				return err
			}
			sh := doc.AddrShards[k]
			if sh < 0 || sh >= len(e.shards) {
				return fmt.Errorf("engine: manifest routes address %s to shard %d of %d", k, sh, len(e.shards))
			}
			route[id] = sh
		}
	}
	loads := make([]*snapshotLoad, len(e.shards))
	for i, data := range doc.Shards {
		if string(data) == "null" {
			continue // the shard had never served when the manifest was written
		}
		l, other, err := e.decodeSnapshot(data, i)
		if other != nil {
			err = fmt.Errorf("engine: shard snapshot has version %d, want %d", other.Version, snapshotVersionSingle)
		}
		if err != nil {
			return e.shardErr(i, err)
		}
		loads[i] = l
	}
	if e.routed() {
		e.pinRoutes(route)
	}
	e.adoptName(doc.Name)
	for _, l := range loads {
		if l != nil {
			l.install()
		}
	}
	return nil
}
