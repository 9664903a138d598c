package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dlinfma/internal/deploy"
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/shard"
)

// testCity is a store-only serving state in the shape of the benchmark
// harness's city (bench/internal/gen.NewCity): buildings of eight, 90 % of
// the addresses with an inferred location, 5 % answered by their building's
// majority (its first two located addresses share a locker, so the majority
// is unique) and 5 % — whole buildings without a location — by their geocode.
type testCity struct {
	addrs []model.AddressInfo
	locs  map[model.AddressID]geo.Point
	want  []deploy.FrozenAnswer // by address id
}

func newTestCity(seed int64, n int) *testCity {
	rng := rand.New(rand.NewSource(seed))
	cm := func(v float64) float64 { return math.Round(v*100) / 100 }
	c := &testCity{
		addrs: make([]model.AddressInfo, n),
		locs:  make(map[model.AddressID]geo.Point, n),
		want:  make([]deploy.FrozenAnswer, n),
	}
	for b := 0; b*8 < n; b++ {
		centre := geo.Point{X: cm(rng.Float64() * 20_000), Y: cm(rng.Float64() * 20_000)}
		locker := geo.Point{X: cm(centre.X + 30), Y: cm(centre.Y - 20)}
		located := 0
		for slot := 0; slot < 8 && b*8+slot < n; slot++ {
			id := model.AddressID(b*8 + slot)
			gc := geo.Point{X: cm(centre.X + rng.NormFloat64()*25), Y: cm(centre.Y + rng.NormFloat64()*25)}
			c.addrs[id] = model.AddressInfo{ID: id, Building: model.BuildingID(b), Geocode: gc}
			switch {
			case b%20 == 0:
				c.want[id] = deploy.FrozenAnswer{Loc: gc, Src: deploy.SourceGeocode}
			case b%20 <= 8 && slot == 7:
				c.want[id] = deploy.FrozenAnswer{Loc: locker, Src: deploy.SourceBuilding}
			default:
				loc := locker
				if located >= 2 {
					loc = geo.Point{X: cm(centre.X + rng.NormFloat64()*8), Y: cm(centre.Y + rng.NormFloat64()*8)}
				}
				located++
				c.locs[id] = loc
				c.want[id] = deploy.FrozenAnswer{Loc: loc, Src: deploy.SourceAddress}
			}
		}
	}
	return c
}

// doc is the city as the harness hands it to a server: json.Marshal of the
// version-1 fields with no confidences and no matcher.
func (c *testCity) doc(t testing.TB) []byte {
	t.Helper()
	sn := snapshot{Version: snapshotVersionSingle, Name: "city", Addresses: c.addrs, Locations: make(map[string][2]float64, len(c.locs))}
	for id, p := range c.locs {
		sn.Locations[strconv.Itoa(int(id))] = [2]float64{p.X, p.Y}
	}
	b, err := json.Marshal(&sn)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func scanTestEngine(t testing.TB, shards int) *Engine {
	t.Helper()
	if shards == 1 {
		return New(streamTestConfig())
	}
	r, err := shard.NewRouter(shards, 8)
	if err != nil {
		t.Fatal(err)
	}
	return NewSharded(streamTestConfig(), r)
}

// viaJSON rewrites doc so that the strict reader declines it and
// encoding/json reads the same document: indented when it is valid JSON —
// which also reaches a manifest's inline shard documents — and behind one
// leading space otherwise.
func viaJSON(doc []byte) []byte {
	var buf bytes.Buffer
	if json.Indent(&buf, doc, "", " ") == nil {
		return buf.Bytes()
	}
	return append([]byte{' '}, doc...)
}

// restoredState is what a restore leaves behind that a replica's clients and
// operators can see.
type restoredState struct {
	frozen   []*deploy.FrozenStore
	status   api.EngineStatus
	matchers [][]byte
	// trips is each shard's count of trips its served state covers, which
	// the next snapshot writes back.
	trips []int
}

// restoreState restores doc into a fresh engine and reports whether the
// strict reader took every version-1 document in it.
func restoreState(t testing.TB, shards int, doc []byte) (st restoredState, scanned bool, err error) {
	t.Helper()
	e := scanTestEngine(t, shards)
	defer e.Close()
	declined := snapshotDecoderFallbacks.Value()
	if err := e.RestoreSnapshot(bytes.NewReader(doc)); err != nil {
		return st, false, err
	}
	st.status = e.Status()
	for _, sh := range e.shards {
		st.frozen = append(st.frozen, sh.frozen())
		var m bytes.Buffer
		trips := 0
		if sv := sh.sv.Load(); sv != nil {
			trips = sv.trips
			if sv.matcher != nil {
				if err := sv.matcher.Save(&m); err != nil {
					t.Fatal(err)
				}
			}
		}
		st.matchers = append(st.matchers, m.Bytes())
		st.trips = append(st.trips, trips)
	}
	return st, snapshotDecoderFallbacks.Value() == declined, nil
}

// checkSnapshotDecode holds the reader-with-fallback to encoding/json alone
// on one document: both fail or both succeed, and a success leaves equal
// frozen stores, status counts, matcher bytes and trip counts.
func checkSnapshotDecode(t *testing.T, doc []byte) {
	t.Helper()
	for _, shards := range []int{1, 3} {
		got, _, gotErr := restoreState(t, shards, doc)
		want, scanned, wantErr := restoreState(t, shards, viaJSON(doc))
		var head struct{ Version int }
		if wantErr == nil && scanned && (json.NewDecoder(bytes.NewReader(doc)).Decode(&head) != nil || head.Version != snapshotVersionSharded) {
			t.Fatalf("shards=%d: the oracle's document took the strict reader", shards)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("shards=%d: restore error %v, encoding/json alone %v", shards, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		for i := range want.frozen {
			if !reflect.DeepEqual(got.frozen[i], want.frozen[i]) {
				c := deploy.DiffFrozen(want.frozen[i], got.frozen[i], 0, nil)
				t.Fatalf("shards=%d shard %d: frozen store differs from encoding/json's: %d moved, %d added, %d dropped",
					shards, i, c.Moved, c.Added, c.Dropped)
			}
			if !bytes.Equal(got.matchers[i], want.matchers[i]) {
				t.Fatalf("shards=%d shard %d: restored matcher differs from encoding/json's", shards, i)
			}
			if got.trips[i] != want.trips[i] {
				t.Fatalf("shards=%d shard %d: restored state covers %d trips, encoding/json's %d", shards, i, got.trips[i], want.trips[i])
			}
		}
		// Everything but the ages, which are wall-clock.
		got.status.PendingAgeSeconds, want.status.PendingAgeSeconds = 0, 0
		if !reflect.DeepEqual(got.status, want.status) {
			t.Fatalf("shards=%d: status %+v, encoding/json alone %+v", shards, got.status, want.status)
		}
	}
}

// matcherPlaceholder stands for the parent fixture's trained matcher in a
// seed: 90 KB of weights the fuzzer gains nothing from mutating, whose
// architecture config, mutated, would size a model to any number of
// gigabytes. withMatcher puts the real bytes back.
const matcherPlaceholder = `"matcher":"M"`

func withMatcher(doc []byte) []byte {
	return bytes.Replace(doc, []byte(matcherPlaceholder), fixtureMatcher(), 1)
}

// fixtureSnapshot is testdata/snapshot_v1.json, the parent's version-1
// snapshot of the trained tiny dataset, decoded.
func fixtureSnapshot() *snapshot {
	fixture, err := os.ReadFile("testdata/snapshot_v1.json")
	if err != nil {
		panic(err)
	}
	sn := new(snapshot)
	if err := json.Unmarshal(fixture, sn); err != nil {
		panic(err)
	}
	return sn
}

// fixtureMatcher is the fixture's matcher field as it stands in a document.
var fixtureMatcher = sync.OnceValue(func() []byte {
	return append([]byte(`"matcher":`), fixtureSnapshot().Matcher...)
})

// snapshotSeeds are the checked-in starting points of FuzzSnapshotDecode.
func snapshotSeeds(t testing.TB) [][]byte {
	city := newTestCity(3, 24)
	harness := city.doc(t)
	// WriteSnapshot's form: the parent's fixture, matcher and all, as it is
	// and with confidences.
	sn := fixtureSnapshot()
	sn.Matcher = json.RawMessage(`"M"`)
	fixture, err := json.Marshal(sn)
	if err != nil {
		t.Fatal(err)
	}
	sn.Confidences = map[string]float32{}
	for k := range sn.Locations {
		sn.Confidences[k] = 1 / float32(len(k)+1)
	}
	sn.Trips = 28
	full, err := json.Marshal(sn)
	if err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(string(harness))
	seeds := [][]byte{
		harness, full, fixture,
		[]byte(`{"version":2,"name":"m","shard_count":3,"addr_shards":{"0":0,"9":2},"shards":[` + line + `,null,` + line + `]}`),
		[]byte(`{"version":2,"shard_count":1,"addr_shards":{},"shards":[` + line + `]}`),
		[]byte(`{"version":2,"shard_count":1,"addr_shards":{},"shards":[` + line + `,` + line + `]}`),
		[]byte(strings.Replace(line, `,"addresses"`, ` , "addresses"`, 1)),
		[]byte(`{"name":"n","version":1,"addresses":[],"locations":{"1":[1,2]}}`),
		[]byte(`{"version":1,"name":"n","addresses":null,"locations":{"1":[1,2],"1":[3,4]}}`),
		[]byte(`{"version":1,"name":"n","addresses":null,"locations":{"2":[1,2],"10":[3,4]}}`),
		[]byte(`{"version":1,"name":"n","addresses":[],"locations":{"5":[1,2]},"confidences":{"5":0.25,"6":0.5}}`),
		[]byte(`{"version":1,"name":"n","addresses":[],"locations":{"5":[1,2]},"trips":7,"matcher":null}`),
		[]byte(`{"version":2,"shard_count":3,"addr_shards":{"5":1},"shards":[null,{"version":1,"name":"n","addresses":[],"locations":{"5":[1,2]},"trips":3},null]}`),
		[]byte(`{"version":1,"name":"n","addresses":[{"ID":1,"Building":2,"Geocode":{"X":3,"Y":4},"POI":5,"GeocodeMode":6},{"ID":1,"Building":7,"Geocode":{"X":8,"Y":9},"POI":0,"GeocodeMode":0}],"locations":{}}`),
		[]byte(`{"version":1,"name":"n","addresses":[{"ID":1,"Building":2,"Geocode":{"X":3,"Y":4},"POI":128,"GeocodeMode":0}],"locations":{}}`),
		[]byte(`{"version":1,"name":"n","addresses":[],"locations":{},"matcher":{"nope":1}}`),
		[]byte(`{"version":1,"name":"n","addresses":[],"locations":{},"matcher":null}` + "\n"),
		[]byte(`{"version":1,"name":"aéb","addresses":[],"locations":{"1":[1,2]}}`),
		[]byte("{\"version\":1,\"name\":\"a\xffb\",\"addresses\":[],\"locations\":{\"1\":[1,2]}}"),
		[]byte(`{"version":1,"name":"n","addresses":[],"locations":{"1":[1,2]}}trailing`),
		[]byte(`{"version":1,"name":"n","addresses":[],"locations":{"1":[1,2]}}` + "\n\n"),
		[]byte(`{"version":1,"name":"n","addresses":[],"locations":{"1":[1,2`),
		[]byte(`{"version":1,"name":"n","addresses":[],"locations":{"1":[1.`),
		[]byte(`{"version":0,"name":"n","addresses":[],"locations":{"1":[1,2]}}`),
		[]byte(`{"version":3,"name":"n","addresses":[],"locations":{"1":[1,2]}}`),
	}
	for _, key := range []string{"007", "-0", "+1", "2147483647", "2147483648", "-2147483648", "1e3", " 1", ""} {
		seeds = append(seeds, []byte(`{"version":1,"name":"n","addresses":[],"locations":{"`+key+`":[1,2]}}`))
	}
	for _, n := range []string{"0", "-0", "-4", "1.5", "07", `"3"`, "null", "9223372036854775807", "99999999999999999999"} {
		seeds = append(seeds, []byte(`{"version":1,"name":"n","addresses":[],"locations":{"1":[1,2]},"trips":`+n+`}`))
	}
	for _, f := range []string{"1e3", "1E-3", "-0", "0.1234567890123456", "12345678901234567", "1e999", "1e-999", "01", "1.", ".5", "-", "0x10", "NaN", "1e+", `"1"`} {
		seeds = append(seeds,
			[]byte(`{"version":1,"name":"n","addresses":[],"locations":{"1":[`+f+`,2]}}`),
			[]byte(`{"version":1,"name":"n","addresses":[],"locations":{"1":[1,2]},"confidences":{"1":`+f+`}}`))
	}
	// An address named twice with different buildings: the first naming is
	// the one served and the one the next snapshot writes.
	seeds = append(seeds, []byte(`{"version":1,"name":"n","addresses":[`+
		`{"ID":1,"Building":1,"Geocode":{"X":10,"Y":10},"POI":0,"GeocodeMode":0},`+
		`{"ID":2,"Building":2,"Geocode":{"X":20,"Y":20},"POI":0,"GeocodeMode":0},`+
		`{"ID":1,"Building":2,"Geocode":{"X":50,"Y":50},"POI":0,"GeocodeMode":0}],"locations":{"2":[7,7]}}`))
	return seeds
}

// TestSnapshotSeedsDecodeAlike runs the fuzz property over the seeds, so
// plain `go test` holds the reader to its definition too.
func TestSnapshotSeedsDecodeAlike(t *testing.T) {
	for i, doc := range snapshotSeeds(t) {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkSnapshotDecode(t, withMatcher(doc)) })
	}
}

func FuzzSnapshotDecode(f *testing.F) {
	for _, doc := range snapshotSeeds(f) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		// A matcher config of the fuzzer's own making is not restored: see
		// matcherPlaceholder.
		if len(doc) > 1<<16 || bytes.Contains(bytes.ToLower(doc), []byte("cfg")) {
			t.Skip()
		}
		checkSnapshotDecode(t, withMatcher(doc))
	})
}

// TestSnapshotScanAtScale restores a 20,000-address city through the strict
// reader and through encoding/json, on one shard and on three: equal frozen
// stores, every answer the generator's expectation — and the documents the
// two writers produce really take the reader, since a silent fall-back would
// pass every equality above.
func TestSnapshotScanAtScale(t *testing.T) {
	city := newTestCity(11, 20_000)
	doc := city.doc(t)
	for _, shards := range []int{1, 3} {
		got, scanned, err := restoreState(t, shards, doc)
		if err != nil {
			t.Fatal(err)
		}
		if !scanned {
			t.Fatalf("shards=%d: the harness's document fell back to encoding/json", shards)
		}
		want, scanned, err := restoreState(t, shards, viaJSON(doc))
		if err != nil {
			t.Fatal(err)
		}
		if scanned {
			t.Fatalf("shards=%d: the indented document took the strict reader", shards)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: the strict reader and encoding/json restore different states", shards)
		}
		if shards > 1 {
			continue // several shards each vote over their slice of a building
		}
		for id, a := range city.want {
			if ans, _ := got.frozen[0].Lookup(model.AddressID(id)); ans != a {
				t.Fatalf("address %d restored as %+v, the generator expects %+v", id, ans, a)
			}
		}
		if got.status.Addresses != len(city.addrs) || got.status.Inferred != len(city.locs) {
			t.Fatalf("status %d addresses / %d inferred, want %d / %d",
				got.status.Addresses, got.status.Inferred, len(city.addrs), len(city.locs))
		}
	}

	// What WriteSnapshot writes — confidences and a matcher included — is
	// the reader's too, as one document and inline in a manifest.
	fixture, err := os.ReadFile("testdata/snapshot_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		e := scanTestEngine(t, shards)
		defer e.Close()
		if err := e.RestoreSnapshot(bytes.NewReader(fixture)); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := e.WriteSnapshot(&out); err != nil {
			t.Fatal(err)
		}
		if _, scanned, err := restoreState(t, shards, out.Bytes()); err != nil || !scanned {
			t.Fatalf("shards=%d: WriteSnapshot's own output: err %v, took the strict reader: %v", shards, err, scanned)
		}
	}
}

// TestSnapshotRestoreAllocs bounds what a restore allocates: the document's
// rows go into presized rows, one index and the frozen table, so the count
// does not grow with the address count the way a key string and a vote map
// per row did (2.07 allocations per address).
func TestSnapshotRestoreAllocs(t *testing.T) {
	const n = 20_000
	doc := newTestCity(11, n).doc(t)
	allocs := testing.AllocsPerRun(3, func() {
		e := New(streamTestConfig()) // a replica booting, as setup_s times it
		defer e.Close()
		if err := e.restoreFrom(doc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > n/20 {
		t.Errorf("restoring %d addresses allocates %.0f times, want under one per twenty addresses", n, allocs)
	}
}

// TestSnapshotScanMinusZero pins the reader's one rule of its own on top of
// jsonscan's grammar: a map key "-0" is encoding/json's to read — "-0" and
// "0" are two keys there and one address here — while an integer field of
// -0, which jsonscan and encoding/json both read as 0, takes the reader.
// Either way the restored state is encoding/json's.
func TestSnapshotScanMinusZero(t *testing.T) {
	for _, tc := range []struct {
		doc     string
		scanned bool
	}{
		{`{"version":1,"name":"n","addresses":[],"locations":{"0":[1,2]}}`, true},
		{`{"version":1,"name":"n","addresses":[],"locations":{"-0":[1,2]}}`, false},
		{`{"version":1,"name":"n","addresses":[],"locations":{"0":[1,2]},"confidences":{"-0":0.5}}`, false},
		{`{"version":1,"name":"n","addresses":[{"ID":-0,"Building":-0,"Geocode":{"X":-0,"Y":1},"POI":-0,"GeocodeMode":-0}],"locations":{"0":[1,2]}}`, true},
	} {
		if _, scanned, err := restoreState(t, 1, []byte(tc.doc)); err != nil || scanned != tc.scanned {
			t.Errorf("%s: err %v, took the strict reader %v, want %v", tc.doc, err, scanned, tc.scanned)
		}
		checkSnapshotDecode(t, []byte(tc.doc))
	}
}
