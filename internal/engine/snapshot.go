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
	"strconv"
	"strings"
	"time"

	"dlinfma/internal/core"
	"dlinfma/internal/deploy"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/peer"
)

// Snapshot layout. A one-shard engine's snapshot is its shard's version-1
// document, as a stream and as a file. An engine with several shards writes
// a version-2 manifest — the routing state plus one version-1 document per
// shard, inline (the streaming /v1/snapshot form) or as sibling files (the
// on-disk form, each file written atomically). Restore decodes a document
// once and dispatches on its version; a version-1 document restores into
// several shards by routing its addresses.
const (
	snapshotVersionSingle  = 1
	snapshotVersionSharded = 2
)

// snapshot is the version-1 document, one shard's serialized serving state:
// the address-level answers of its frozen store (string-keyed like the
// dataset file format) with their confidence stamps, the address metadata
// the building and geocode fallbacks are a pure function of, and the trained
// matcher via core's own serialization. Restoring it rebuilds the frozen
// store it was written from, answer for answer. The candidate pool is not
// included — it is derived from trips, which a snapshot deliberately omits;
// after a restore the engine serves queries immediately but needs fresh
// ingest before the next re-inference.
type snapshot struct {
	Version   int                   `json:"version"`
	Name      string                `json:"name"`
	Addresses []model.AddressInfo   `json:"addresses"`
	Locations map[string][2]float64 `json:"locations"`
	// Confidences holds the non-zero top-1 probabilities behind Locations.
	// Documents written before the field existed restore with confidence 0
	// (unknown) everywhere.
	Confidences map[string]float32 `json:"confidences,omitempty"`
	Matcher     json.RawMessage    `json:"matcher,omitempty"`
}

// shardManifest is the version-2 document as written. A shard that has never
// served has a null / empty entry and simply stays cold after restore.
type shardManifest struct {
	Version    int    `json:"version"`
	Name       string `json:"name,omitempty"`
	ShardCount int    `json:"shard_count"`
	// Precision records the router's geohash precision for operators;
	// restored addresses keep their pinned shard from AddrShards either way.
	Precision  int               `json:"precision,omitempty"`
	AddrShards map[string]int    `json:"addr_shards"`
	Shards     []json.RawMessage `json:"shards,omitempty"`
	Files      []string          `json:"files,omitempty"`
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
	Files      []string          `json:"files"`
}

// errNothingToSnapshot is peer.ErrNotReady with the engine's wording: the
// one error a snapshot fan-out skips a shard on.
var errNothingToSnapshot = fmt.Errorf("engine: nothing to snapshot before the first re-inference: %w", peer.ErrNotReady)

// errRemoteSnapshotFiles rejects restore and snapshot-file paths in the
// remote topology: those install serving state into Shard structs this
// process does not own. Each shard process restores its own snapshot;
// WriteSnapshot (the read side) still works everywhere through the seam.
var errRemoteSnapshotFiles = errors.New("engine: snapshot restore requires in-process shards; restore each shard process from its own snapshot")

// WriteSnapshot streams the shard's serving state to w as a version-1
// document. It fails with peer.ErrNotReady before the first completed
// re-inference or restore.
func (s *Shard) WriteSnapshot(w io.Writer) (err error) {
	defer func() {
		if err != nil {
			snapshotSaveErr.Inc()
		} else {
			snapshotSaveOK.Inc()
		}
	}()
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
// Whichever decoder reads the document feeds address, location and
// confidence in that order; nothing is installed until install, which
// cannot fail.
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
	// matcherJSON is the document's matcher as read; matcher is the model
	// loadMatcher decodes from it.
	matcherJSON []byte
	matcher     *core.LocMatcher
	// decoder and start label the "snapshot restored" log line.
	decoder string
	start   time.Time
}

// shardLoad is one shard's share of a snapshotLoad: the store to freeze and
// the addresses that seed the shard's ingest state.
type shardLoad struct {
	store *deploy.Store
	addrs []model.AddressInfo
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
		into[i].store.Grow(hint)
	}
	return l
}

func (l *snapshotLoad) address(a model.AddressInfo) {
	sh := l.only
	if sh < 0 {
		sh = l.e.router.AddressShard(a)
		l.route[a.ID] = sh
	}
	p := &l.parts[sh]
	p.addrs = append(p.addrs, a)
	p.store.RegisterAddress(a.ID, a.Building, a.Geocode)
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
	l.parts[sh].store.Put(id, loc)
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
	l.name, l.matcherJSON, l.decoder = sn.Name, sn.Matcher, "json"
	for _, a := range sn.Addresses {
		l.address(a)
	}
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
		if p.store == nil || l.only < 0 && len(p.addrs) == 0 && p.store.Len() == 0 {
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
// shard's evidence so later windows extend the same address universe.
func (s *Shard) restore(l *snapshotLoad, p *shardLoad) {
	s.ev.register(l.name, p.addrs)
	s.publish(&serving{frozen: freeze(p.store), matcher: l.matcher}, swapKindRestore)
	snapshotRestoreOK.Inc()
	s.log.Info("snapshot restored",
		"dataset", l.name, "addresses", len(p.addrs), "locations", p.store.Len(),
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
// same manifest from its shard processes' /v1/snapshot streams. A shard with
// nothing to serve yet is skipped; any other shard error fails the snapshot.
// It fails with peer.ErrNotReady while no shard has anything to serve.
func (e *Engine) WriteSnapshot(w io.Writer) error {
	if !e.routed() {
		return e.backends[0].WriteSnapshot(w)
	}
	m := e.newManifest()
	m.Shards = make([]json.RawMessage, len(e.backends))
	ready := false
	for i, b := range e.backends {
		var buf bytes.Buffer
		err := b.WriteSnapshot(&buf)
		if errors.Is(err, peer.ErrNotReady) {
			m.Shards[i] = json.RawMessage("null")
			continue
		}
		if err != nil {
			return e.shardErr(i, err)
		}
		ready = true
		m.Shards[i] = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
	}
	if !ready {
		return errNothingToSnapshot
	}
	return json.NewEncoder(w).Encode(m)
}

// newManifest captures the routing state common to both manifest forms.
func (e *Engine) newManifest() *shardManifest {
	e.mu.RLock()
	defer e.mu.RUnlock()
	m := &shardManifest{
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

// SaveSnapshotFile writes the snapshot to path atomically and durably (temp
// file + fsync + rename), so a crash mid-write never corrupts the previous
// snapshot and a completed save survives power loss. Several shards write
// one file per ready shard next to path under a name no earlier save used
// (path.<gen>.shardN, each atomic), then the manifest at path that names
// them, then remove the shard files the manifest no longer names — so a
// failure or crash at any point leaves the previous generation whole and
// loadable. Only once everything is durable are the WAL segments the
// snapshotted state covers dropped; a failed save truncates nothing.
func (e *Engine) SaveSnapshotFile(path string) error {
	if e.remote {
		return errRemoteSnapshotFiles
	}
	if err := e.saveSnapshotFiles(path); err != nil {
		return err
	}
	e.maybeTruncateWAL()
	return nil
}

func (e *Engine) saveSnapshotFiles(path string) error {
	if !e.routed() {
		return writeFileAtomic(path, e.shards[0].WriteSnapshot)
	}
	m := e.newManifest()
	dir, base := filepath.Split(path)
	gen := snapshotGeneration()
	m.Files = make([]string, len(e.shards))
	ready := false
	for i, sh := range e.shards {
		name := fmt.Sprintf("%s.%s.shard%d", base, gen, i)
		err := writeFileAtomic(filepath.Join(dir, name), sh.WriteSnapshot)
		if errors.Is(err, peer.ErrNotReady) {
			continue // never served: leave its entry empty
		}
		if err != nil {
			return e.shardErr(i, err)
		}
		ready = true
		m.Files[i] = name
	}
	if !ready {
		return errNothingToSnapshot
	}
	doc, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	err = writeFileAtomic(path, func(w io.Writer) error {
		_, werr := w.Write(append(doc, '\n'))
		return werr
	})
	if err != nil {
		return err
	}
	// Best effort: a leftover file of an earlier generation costs disk only.
	ents, _ := os.ReadDir(filepath.Dir(path))
	for _, d := range ents {
		rest, ok := strings.CutPrefix(d.Name(), base+".")
		if ok && strings.Contains(rest, "shard") && !slices.Contains(m.Files, d.Name()) {
			os.Remove(filepath.Join(dir, d.Name()))
		}
	}
	return nil
}

// snapshotGeneration names one save's shard files; a time-based token, so
// no save writes over the files of the manifest already on disk.
var snapshotGeneration = func() string {
	return strconv.FormatInt(time.Now().UnixNano(), 36)
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
		snapshotRestoreErr.Inc()
		return fmt.Errorf("engine: read snapshot: %w", err)
	}
	return e.restoreFrom(data, "")
}

// LoadSnapshotFile restores from a file written by SaveSnapshotFile (or any
// snapshot stream saved to disk).
func (e *Engine) LoadSnapshotFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return e.restoreFrom(data, filepath.Dir(path))
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

// restoreFrom decodes the document and dispatches on its version. dir is
// where a file manifest's sibling shard files live ("" for a stream, which
// cannot reference files). Unknown versions are rejected instead of silently
// mis-decoded.
func (e *Engine) restoreFrom(data []byte, dir string) error {
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
		snapshotRestoreErr.Inc()
		return err
	case l != nil:
		l.install()
		e.adoptName(l.name)
		return nil
	case doc.Version == snapshotVersionSharded:
		return e.restoreManifest(doc, dir)
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
// topology, decodes every shard document it carries inline or — when loaded
// from a file — names as a sibling file, matcher included, and only then
// installs its routing state and the shards' serving states. Decoding is all
// that can fail, so a manifest that fails leaves the engine as it was.
func (e *Engine) restoreManifest(doc *snapshotDoc, dir string) error {
	if doc.ShardCount != len(e.shards) {
		return fmt.Errorf("engine: manifest has %d shards, engine is configured with %d (restart with -shards %d)",
			doc.ShardCount, len(e.shards), doc.ShardCount)
	}
	// The writers list every shard or none; a list of any other length
	// would restore some of its documents and silently drop the rest.
	if n := len(doc.Shards); n != 0 && n != doc.ShardCount {
		return fmt.Errorf("engine: manifest carries %d shard documents for %d shards", n, doc.ShardCount)
	}
	if n := len(doc.Files); n != 0 && n != doc.ShardCount {
		return fmt.Errorf("engine: manifest names %d shard files for %d shards", n, doc.ShardCount)
	}
	if len(doc.Files) > 0 && len(doc.Shards) == 0 && dir == "" {
		return errors.New("engine: manifest references shard files; restore it with LoadSnapshotFile")
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
	for i := range e.shards {
		var data []byte
		switch {
		case i < len(doc.Shards) && string(doc.Shards[i]) != "null":
			data = doc.Shards[i]
		case dir != "" && i < len(doc.Files) && doc.Files[i] != "":
			var err error
			if data, err = os.ReadFile(filepath.Join(dir, doc.Files[i])); err != nil {
				return e.shardErr(i, err)
			}
		default:
			continue // the shard had never served when the manifest was written
		}
		l, other, err := e.decodeSnapshot(data, i)
		if other != nil {
			err = fmt.Errorf("engine: shard snapshot has version %d, want %d", other.Version, snapshotVersionSingle)
		}
		if err != nil {
			snapshotRestoreErr.Inc()
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
