package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

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
	// Version 0 is the pre-versioning legacy encoding of version 1.
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

// snapshotDoc is what a restore decodes into: the union of both versions'
// fields, so the document is parsed exactly once — inline shard documents
// included — whatever its version turns out to be.
type snapshotDoc struct {
	snapshot
	ShardCount int            `json:"shard_count"`
	AddrShards map[string]int `json:"addr_shards"`
	Shards     []*snapshot    `json:"shards"`
	Files      []string       `json:"files"`
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
	s.mu.Lock()
	sn := snapshot{
		Version:   snapshotVersionSingle,
		Name:      s.name,
		Addresses: append([]model.AddressInfo(nil), s.addrs...),
		Locations: make(map[string][2]float64, n),
	}
	s.mu.Unlock()
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

// restore freezes a decoded version-1 document back into the serving state
// it was written from and swaps it in: the address-level answers and their
// confidences as stored, the building/geocode fallbacks recomputed from the
// address metadata, the trained matcher available again. The restored
// addresses also seed the ingest state so later windows extend the same
// address universe.
func (s *Shard) restore(sn *snapshot) (err error) {
	defer func() {
		if err != nil {
			snapshotRestoreErr.Inc()
		} else {
			snapshotRestoreOK.Inc()
		}
	}()
	if sn.Version > snapshotVersionSingle {
		return fmt.Errorf("engine: shard snapshot has version %d, want %d", sn.Version, snapshotVersionSingle)
	}
	store := deploy.NewStore()
	for _, a := range sn.Addresses {
		store.RegisterAddress(a.ID, a.Building, a.Geocode)
	}
	for k, v := range sn.Locations {
		id, err := parseAddressKey(k)
		if err != nil {
			return err
		}
		store.Put(id, geo.Point{X: v[0], Y: v[1]})
	}
	for k, c := range sn.Confidences {
		id, err := parseAddressKey(k)
		if err != nil {
			return err
		}
		store.SetConfidence(id, c)
	}
	var matcher *core.LocMatcher
	if len(sn.Matcher) > 0 {
		m, err := core.LoadLocMatcher(bytes.NewReader(sn.Matcher))
		if err != nil {
			return err
		}
		matcher = m
	}

	s.mu.Lock()
	if s.name == "" {
		s.name = sn.Name
	}
	s.addAddressesLocked(sn.Addresses)
	s.mu.Unlock()

	s.publish(&serving{frozen: store.Freeze(), matcher: matcher}, swapKindRestore)
	s.log.Info("snapshot restored",
		"dataset", sn.Name, "addresses", len(sn.Addresses), "locations", len(sn.Locations))
	return nil
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
// one file per ready shard next to path (path.shardN, each atomic) and then
// the manifest at path, so a crash at any point leaves the previous
// generation loadable. Only once everything is durable are the WAL segments
// the snapshotted state covers dropped; a failed save truncates nothing.
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
	m.Files = make([]string, len(e.shards))
	ready := false
	for i, sh := range e.shards {
		name := fmt.Sprintf("%s.shard%d", base, i)
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
	return writeFileAtomic(path, func(w io.Writer) error {
		_, werr := w.Write(append(doc, '\n'))
		return werr
	})
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
func (e *Engine) RestoreSnapshot(r io.Reader) error { return e.restoreFrom(r, "") }

// LoadSnapshotFile restores from a file written by SaveSnapshotFile (or any
// snapshot stream saved to disk).
func (e *Engine) LoadSnapshotFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return e.restoreFrom(f, filepath.Dir(path))
}

// restoreFrom decodes the document once and dispatches on its version. dir
// is where a file manifest's sibling shard files live ("" for a stream,
// which cannot reference files). Unknown versions are rejected instead of
// silently mis-decoded.
func (e *Engine) restoreFrom(r io.Reader, dir string) error {
	if e.remote {
		return errRemoteSnapshotFiles
	}
	var doc snapshotDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		snapshotRestoreErr.Inc()
		return fmt.Errorf("engine: decode snapshot: %w", err)
	}
	switch doc.Version {
	case 0, snapshotVersionSingle:
		return e.restoreSingle(&doc.snapshot)
	case snapshotVersionSharded:
		return e.restoreManifest(&doc, dir)
	default:
		return fmt.Errorf("engine: unsupported snapshot version %d (max %d)", doc.Version, snapshotVersionSharded)
	}
}

// restoreSingle installs a version-1 document. One shard takes it as is — it
// is that shard's own format. Several shards split it by routing its
// addresses through the router; every shard then serves its slice of the old
// state (sharing the old model) until its next retrain.
func (e *Engine) restoreSingle(sn *snapshot) error {
	if !e.routed() {
		if err := e.shards[0].restore(sn); err != nil {
			return err
		}
		e.adoptName(sn.Name)
		return nil
	}
	parts := make([]snapshot, len(e.shards))
	for i := range parts {
		parts[i] = snapshot{
			Name:        sn.Name,
			Locations:   make(map[string][2]float64),
			Confidences: make(map[string]float32),
			Matcher:     sn.Matcher,
		}
	}
	route := make(map[model.AddressID]int, len(sn.Addresses))
	for _, a := range sn.Addresses {
		sh := e.router.AddressShard(a)
		route[a.ID] = sh
		parts[sh].Addresses = append(parts[sh].Addresses, a)
	}
	for k, v := range sn.Locations {
		id, err := parseAddressKey(k)
		if err != nil {
			return err
		}
		sh, ok := route[id]
		if !ok {
			// Location without address metadata: route by the point itself.
			sh = e.router.ShardOfPoint(geo.Point{X: v[0], Y: v[1]})
			route[id] = sh
		}
		parts[sh].Locations[k] = v
	}
	for k, c := range sn.Confidences {
		id, err := parseAddressKey(k)
		if err != nil {
			return err
		}
		if sh, ok := route[id]; ok { // else a stamp with no answer to ride
			parts[sh].Confidences[k] = c
		}
	}
	for i := range parts {
		if len(parts[i].Addresses) == 0 && len(parts[i].Locations) == 0 {
			continue
		}
		if err := e.shards[i].restore(&parts[i]); err != nil {
			return e.shardErr(i, err)
		}
	}
	e.adoptName(sn.Name)
	e.mu.Lock()
	for id, sh := range route {
		e.addrShard[id] = sh
	}
	e.publishRoutesLocked()
	e.mu.Unlock()
	return nil
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
// topology, installs its routing state, and restores every shard document it
// carries inline or — when loaded from a file — names as a sibling file.
func (e *Engine) restoreManifest(doc *snapshotDoc, dir string) error {
	if doc.ShardCount != len(e.shards) {
		return fmt.Errorf("engine: manifest has %d shards, engine is configured with %d (restart with -shards %d)",
			doc.ShardCount, len(e.shards), doc.ShardCount)
	}
	if len(doc.Files) > 0 && len(doc.Shards) == 0 && dir == "" {
		return errors.New("engine: manifest references shard files; restore it with LoadSnapshotFile")
	}
	if e.routed() {
		route := make(map[model.AddressID]int, len(doc.AddrShards))
		for k, sh := range doc.AddrShards {
			id, err := parseAddressKey(k)
			if err != nil {
				return err
			}
			if sh < 0 || sh >= len(e.shards) {
				return fmt.Errorf("engine: manifest routes address %s to shard %d of %d", k, sh, len(e.shards))
			}
			route[id] = sh
		}
		e.mu.Lock()
		for id, sh := range route {
			e.addrShard[id] = sh
		}
		e.publishRoutesLocked()
		e.mu.Unlock()
	}
	e.adoptName(doc.Name)
	for i, sh := range e.shards {
		var sn *snapshot
		switch {
		case i < len(doc.Shards) && doc.Shards[i] != nil:
			sn = doc.Shards[i]
		case dir != "" && i < len(doc.Files) && doc.Files[i] != "":
			var err error
			if sn, err = readShardFile(filepath.Join(dir, doc.Files[i])); err != nil {
				return e.shardErr(i, err)
			}
		default:
			continue // the shard had never served when the manifest was written
		}
		if err := sh.restore(sn); err != nil {
			return e.shardErr(i, err)
		}
	}
	return nil
}

// readShardFile decodes one shard's version-1 document from path.
func readShardFile(path string) (*snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sn := new(snapshot)
	if err := json.NewDecoder(f).Decode(sn); err != nil {
		return nil, fmt.Errorf("engine: decode %s: %w", path, err)
	}
	return sn, nil
}
