package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dlinfma/internal/deploy"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/shard"
	"dlinfma/internal/synth"
)

// TestSnapshotRoundTripIsIdentity pins the snapshot as the serialized serving
// state: restoring what WriteSnapshot wrote reproduces every shard's frozen
// store exactly — address-level answers with their confidence stamps,
// building and geocode fallbacks, and the per-building majorities — so two
// replicas booted from one snapshot serve, and report, the same thing.
func TestSnapshotRoundTripIsIdentity(t *testing.T) {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			fresh := func() *Engine {
				if n == 1 {
					return New(streamTestConfig())
				}
				r, err := shard.NewRouter(n, 8)
				if err != nil {
					t.Fatal(err)
				}
				return NewSharded(streamTestConfig(), r)
			}
			e := fresh()
			defer e.Close()
			ctx := context.Background()
			if err := e.IngestDataset(ctx, ds); err != nil {
				t.Fatal(err)
			}
			if err := e.Reinfer(ctx); err != nil {
				t.Fatal(err)
			}
			var doc bytes.Buffer
			if err := e.WriteSnapshot(&doc); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(doc.String(), `"confidences":{`) {
				t.Fatal("snapshot of a re-inferred engine carries no confidences")
			}
			restored := fresh()
			defer restored.Close()
			if err := restored.RestoreSnapshot(&doc); err != nil {
				t.Fatal(err)
			}

			// A threshold above every probability counts each stamped answer.
			const everyStamp = 2
			stamped := int64(0)
			for i := range e.shards {
				before, after := e.shards[i].frozen(), restored.shards[i].frozen()
				c := deploy.DiffFrozen(before, after, everyStamp, nil)
				if c.Moved != 0 || c.Added != 0 || c.Dropped != 0 {
					t.Errorf("shard %d: restore moved %d, added %d, dropped %d answers", i, c.Moved, c.Added, c.Dropped)
				}
				if want := deploy.DiffFrozen(nil, before, everyStamp, nil).LowConfidence; c.LowConfidence != want {
					t.Errorf("shard %d: %d confidence stamps after the restore, %d before", i, c.LowConfidence, want)
				}
				stamped += c.LowConfidence
				before.Each(func(id model.AddressID, a deploy.FrozenAnswer) {
					if got, _ := after.Lookup(id); got != a {
						t.Errorf("shard %d address %d: restored %+v, served %+v", i, id, got, a)
					}
				})
				if !reflect.DeepEqual(before, after) {
					t.Errorf("shard %d: restored frozen store differs from the one snapshotted", i)
				}
			}
			if stamped == 0 {
				t.Fatal("no answer carried a confidence stamp; the comparison is vacuous")
			}
		})
	}
}

// TestSnapshotAddressKeysAreStrict: a snapshot key must be one whole decimal
// int32. fmt.Sscan used to stop at the first non-digit and report success, so
// "12abc" and "12 7" both loaded as address 12.
func TestSnapshotAddressKeysAreStrict(t *testing.T) {
	for _, tc := range []struct {
		key string
		ok  bool
	}{
		{"7", true}, {"-3", true},
		{"12abc", false}, {"12 7", false}, {" 5", false}, {"0x10", false}, {"2147483648", false}, {"", false},
	} {
		for _, doc := range []string{
			`{"version":1,"locations":{%q:[1,2]}}`,
			`{"version":1,"locations":{"1":[1,2]},"confidences":{%q:0.5}}`,
			`{"version":2,"shard_count":2,"addr_shards":{%q:0},"shards":[null,null]}`,
		} {
			r, err := shard.NewRouter(2, 8)
			if err != nil {
				t.Fatal(err)
			}
			e := NewSharded(streamTestConfig(), r)
			err = e.RestoreSnapshot(strings.NewReader(fmt.Sprintf(doc, tc.key)))
			e.Close()
			if tc.ok && err != nil {
				t.Errorf("key %q in %s: %v", tc.key, doc, err)
			}
			if want := fmt.Sprintf("engine: bad snapshot address key %q", tc.key); !tc.ok && (err == nil || err.Error() != want) {
				t.Errorf("key %q in %s: error %v, want %q", tc.key, doc, err, want)
			}
		}
	}
}

// TestSnapshotKeysNamingOneAddress: "0" and "00" (or "7" and "07") are two
// keys to encoding/json and one address to the engine. A restore resolves
// them in byte order — the later key wins, as a later Put does — so the same
// document restores to the same store every time; in map order it kept
// either value at random (FuzzSnapshotDecode found it).
func TestSnapshotKeysNamingOneAddress(t *testing.T) {
	doc := `{"version":1,"name":"n","addresses":null,` +
		`"locations":{"0":[1,2],"00":[3,4],"7":[5,6],"07":[7,8]},"confidences":{"0":0.25,"00":0.75}}`
	want := map[model.AddressID]deploy.FrozenAnswer{
		0: {Loc: geo.Point{X: 3, Y: 4}, Src: deploy.SourceAddress, Conf: 0.75},
		7: {Loc: geo.Point{X: 5, Y: 6}, Src: deploy.SourceAddress},
	}
	for i := 0; i < 20; i++ {
		e := New(streamTestConfig())
		if err := e.RestoreSnapshot(strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
		for id, a := range want {
			if got, _ := e.shards[0].frozen().Lookup(id); got != a {
				t.Fatalf("restore %d: address %d answers %+v, want %+v", i, id, got, a)
			}
		}
		e.Close()
	}
}

// TestRestoreRefusesUnwrittenForms: documents no writer produces are refused
// loudly, and the engine stays as it was. A version-0 document — the form
// before snapshots carried a version — is an unsupported version, alone and
// inside a manifest. A manifest's shard list holds one entry per shard or
// none; a longer one used to restore its first entries and drop the rest,
// so a one-shard engine loaded the document below without error and then
// answered SourceNone for address 7.
func TestRestoreRefusesUnwrittenForms(t *testing.T) {
	doc := func(id int) string {
		return fmt.Sprintf(`{"version":1,"name":"n","addresses":[],"locations":{"%d":[1,2]}}`, id)
	}
	v0 := `{"version":0,"name":"n","addresses":[],"locations":{"1":[1,2]}}`
	for _, tc := range []struct {
		shards int
		doc    string
		want   string
	}{
		{1, v0, "unsupported snapshot version 0"},
		{3, v0, "unsupported snapshot version 0"},
		{1, `{"version":2,"shard_count":1,"addr_shards":{},"shards":[` + v0 + `]}`, "shard snapshot has version 0"},
		{1, `{"version":2,"shard_count":1,"addr_shards":{},"shards":[` + doc(1) + `,` + doc(7) + `]}`, "manifest carries 2 shard documents for 1 shards"},
		{2, `{"version":2,"shard_count":2,"addr_shards":{},"shards":[` + doc(1) + `,null,` + doc(7) + `]}`, "manifest carries 3 shard documents for 2 shards"},
		{2, `{"version":2,"shard_count":2,"addr_shards":{},"shards":[` + doc(1) + `]}`, "manifest carries 1 shard documents for 2 shards"},
		{2, `{"version":2,"shard_count":2,"addr_shards":{},"files":["a","b","c"]}`, "manifest names 3 shard files for 2 shards"},
	} {
		e := New(streamTestConfig())
		if tc.shards > 1 {
			r, err := shard.NewRouter(tc.shards, 8)
			if err != nil {
				t.Fatal(err)
			}
			e = NewSharded(streamTestConfig(), r)
		}
		err := e.RestoreSnapshot(strings.NewReader(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("shards=%d %s: restore error %v, want one saying %q", tc.shards, tc.doc, err, tc.want)
		}
		if e.Status().Ready {
			t.Errorf("shards=%d %s: a refused document left the engine ready", tc.shards, tc.doc)
		}
		e.Close()
	}
}

// TestFailedManifestRestoreInstallsNothing: a manifest restore is whole or
// nothing. Its last shard's matcher does not load, which the restore used to
// find only while installing that shard — after it had published the routing
// table and installed shard 0, so the engine reported the error and served
// shard 0 anyway.
func TestFailedManifestRestoreInstallsNothing(t *testing.T) {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	sharded := func() *Engine {
		r, err := shard.NewRouter(2, 8)
		if err != nil {
			t.Fatal(err)
		}
		return NewSharded(streamTestConfig(), r)
	}
	e := sharded()
	defer e.Close()
	ctx := context.Background()
	if err := e.IngestDataset(ctx, ds); err != nil {
		t.Fatal(err)
	}
	if err := e.Reinfer(ctx); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var m shardManifest
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 2 || string(m.Shards[0]) == "null" {
		t.Fatalf("shard 0 wrote no document, so nothing could be installed before shard 1: %d documents", len(m.Shards))
	}
	var sn snapshot
	if err := json.Unmarshal(m.Shards[1], &sn); err != nil {
		t.Fatal(err)
	}
	var matcher map[string]json.RawMessage
	if err := json.Unmarshal(sn.Matcher, &matcher); err != nil {
		t.Fatal(err)
	}
	matcher["params"] = json.RawMessage("[]") // valid JSON, but no tensors
	if sn.Matcher, err = json.Marshal(matcher); err != nil {
		t.Fatal(err)
	}
	if m.Shards[1], err = json.Marshal(&sn); err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}

	restored := sharded()
	defer restored.Close()
	err = restored.RestoreSnapshot(bytes.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "tensors") {
		t.Fatalf("restore error %v, want shard 1's matcher refused", err)
	}
	if st := restored.Status(); st.Ready || st.Inferred != 0 {
		t.Errorf("failed restore left the engine ready=%v serving %d addresses", st.Ready, st.Inferred)
	}
	if rt := restored.routes.Load(); rt != nil && len(*rt) > 0 {
		t.Errorf("failed restore published a routing table of %d addresses", len(*rt))
	}
}
