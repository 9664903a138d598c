package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dlinfma/internal/deploy"
	"dlinfma/internal/engine"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/shard"
)

// snapshotDoc marshals a store-only version-1 snapshot for restore-based
// read-path tests (no training needed).
func snapshotDoc(t testing.TB, addrs []model.AddressInfo, locs map[model.AddressID]geo.Point) []byte {
	t.Helper()
	sn := struct {
		Version   int                   `json:"version"`
		Name      string                `json:"name"`
		Addresses []model.AddressInfo   `json:"addresses"`
		Locations map[string][2]float64 `json:"locations"`
	}{Version: 1, Name: "frozen-test", Addresses: addrs, Locations: map[string][2]float64{}}
	for id, p := range locs {
		sn.Locations[fmt.Sprint(id)] = [2]float64{p.X, p.Y}
	}
	doc, err := json.Marshal(sn)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestFrozenSwapNeverTearsFallbackChain hammers Query while snapshot
// restores flip the serving state between two versions with *conflicting*
// fallback chains. Version A serves address 1 at the address level, which
// also makes it building 10's majority, so address 2 answers (P1, building).
// Version B serves address 2 at the address level, demoting address 1 to
// (P2, building). A reader must always observe one whole chain or the other
// — e.g. (P1, building) for address 1 would mean it saw A's majority through
// B's address-level miss, a torn chain. Run with -race.
func TestFrozenSwapNeverTearsFallbackChain(t *testing.T) {
	p1 := geo.Point{X: 1, Y: 1}
	p2 := geo.Point{X: 2, Y: 2}
	addrs := []model.AddressInfo{
		{ID: 1, Building: 10, Geocode: geo.Point{X: 11, Y: 11}},
		{ID: 2, Building: 10, Geocode: geo.Point{X: 22, Y: 22}},
	}
	docA := snapshotDoc(t, addrs, map[model.AddressID]geo.Point{1: p1})
	docB := snapshotDoc(t, addrs, map[model.AddressID]geo.Point{2: p2})

	valid := map[model.AddressID]map[deploy.BatchAnswer]bool{
		1: {
			{Loc: p1, Src: deploy.SourceAddress}:  true, // version A
			{Loc: p2, Src: deploy.SourceBuilding}: true, // version B
		},
		2: {
			{Loc: p1, Src: deploy.SourceBuilding}: true, // version A
			{Loc: p2, Src: deploy.SourceAddress}:  true, // version B
		},
	}

	e := engine.New(quickConfig())
	defer e.Close()
	if err := e.RestoreSnapshot(bytes.NewReader(docA)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := model.AddressID(g%2 + 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				loc, src := e.Query(id)
				if !valid[id][deploy.BatchAnswer{Loc: loc, Src: src}] {
					select {
					case errs <- fmt.Errorf("torn chain: addr %d observed (%v, %v)", id, loc, src):
					default:
					}
					return
				}
			}
		}(g)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		doc := docA
		if i%2 == 0 {
			doc = docB
		}
		if err := e.RestoreSnapshot(bytes.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestFrozenQueryZeroAllocs guards the steady-state read path, unrouted (one
// shard) and routed (four): zero allocations per query.
func TestFrozenQueryZeroAllocs(t *testing.T) {
	addrs := []model.AddressInfo{
		{ID: 1, Building: 10, Geocode: geo.Point{X: 11, Y: 11}},
		{ID: 2, Building: 10, Geocode: geo.Point{X: 22, Y: 22}},
		{ID: 3, Building: 11, Geocode: geo.Point{X: 33, Y: 33}},
	}
	doc := snapshotDoc(t, addrs, map[model.AddressID]geo.Point{1: {X: 1, Y: 1}, 3: {X: 3, Y: 3}})
	keys := []model.AddressID{1, 2, 3, 99}

	e := engine.New(quickConfig())
	defer e.Close()
	if err := e.RestoreSnapshot(bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		e.Query(keys[i%len(keys)])
		i++
	}); n != 0 {
		t.Errorf("1-shard Engine.Query allocates %.1f/op, want 0", n)
	}
	// One shard answers a batch without the scatter scratch or its closures.
	out := make([]deploy.BatchAnswer, len(keys))
	if n := testing.AllocsPerRun(1000, func() {
		e.QueryBatch(context.Background(), keys, out)
	}); n != 0 {
		t.Errorf("1-shard Engine.QueryBatch allocates %.1f/op, want 0", n)
	}

	r, err := shard.NewRouter(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := engine.NewSharded(quickConfig(), r)
	defer s.Close()
	if err := s.RestoreSnapshot(bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	i = 0
	if n := testing.AllocsPerRun(1000, func() {
		s.Query(keys[i%len(keys)])
		i++
	}); n != 0 {
		t.Errorf("4-shard Engine.Query allocates %.1f/op, want 0", n)
	}
}

// TestQueryBatchInputOrder drives the scatter/gather bulk path of the
// sharded engine over a shuffled key mix (every shard plus unknown keys) and
// checks the contract: out[i] answers addrs[i], identically to a per-key
// Query, with recycled result slices.
func TestQueryBatchInputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var addrs []model.AddressInfo
	locs := map[model.AddressID]geo.Point{}
	for i := 1; i <= 400; i++ {
		a := model.AddressInfo{
			ID:       model.AddressID(i),
			Building: model.BuildingID(i / 4),
			Geocode:  geo.Point{X: float64(rng.Intn(20000) - 10000), Y: float64(rng.Intn(20000) - 10000)},
		}
		addrs = append(addrs, a)
		if i%3 != 0 { // every third address answers via a fallback level
			locs[a.ID] = geo.Point{X: a.Geocode.X + 5, Y: a.Geocode.Y + 5}
		}
	}
	doc := snapshotDoc(t, addrs, locs)

	r, err := shard.NewRouter(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	s := engine.NewSharded(quickConfig(), r)
	defer s.Close()
	if err := s.RestoreSnapshot(bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}

	keys := make([]model.AddressID, 0, 1200)
	for len(keys) < 1200 {
		keys = append(keys, model.AddressID(rng.Intn(450)+1)) // ids past 400 are unknown
	}
	scratch := make([]deploy.BatchAnswer, 0, 4)
	out, err := s.QueryBatch(context.Background(), keys, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(keys) {
		t.Fatalf("got %d answers for %d keys", len(out), len(keys))
	}
	for i, id := range keys {
		loc, src := s.Query(id)
		if out[i].Loc != loc || out[i].Src != src {
			t.Fatalf("key %d (addr %d): batch (%v,%v) != query (%v,%v)",
				i, id, out[i].Loc, out[i].Src, loc, src)
		}
	}

	// The single engine's bulk path honours the same contract.
	e := engine.New(quickConfig())
	defer e.Close()
	if err := e.RestoreSnapshot(bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	out, err = e.QueryBatch(context.Background(), keys, out)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range keys {
		loc, src := e.Query(id)
		if out[i].Loc != loc || out[i].Src != src {
			t.Fatalf("single engine key %d (addr %d): batch (%v,%v) != query (%v,%v)",
				i, id, out[i].Loc, out[i].Src, loc, src)
		}
	}
}

// TestQueryBatchCancelled pins the context contract: a cancelled caller gets
// ctx's error back instead of a full (and wasted) scan.
func TestQueryBatchCancelled(t *testing.T) {
	addrs := []model.AddressInfo{{ID: 1, Building: 1, Geocode: geo.Point{X: 1}}}
	doc := snapshotDoc(t, addrs, map[model.AddressID]geo.Point{1: {X: 1}})
	e := engine.New(quickConfig())
	defer e.Close()
	if err := e.RestoreSnapshot(bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	keys := make([]model.AddressID, 2048)
	if _, err := e.QueryBatch(ctx, keys, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestQueryBatchColdEngine: before any serving state, every key answers
// SourceNone (the HTTP layer turns that into a batch-wide 503 instead).
func TestQueryBatchColdEngine(t *testing.T) {
	r, err := shard.NewRouter(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	s := engine.NewSharded(quickConfig(), r)
	defer s.Close()
	out, err := s.QueryBatch(context.Background(), []model.AddressID{1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range out {
		if a.Src != deploy.SourceNone {
			t.Fatalf("cold answer %d = %v", i, a.Src)
		}
	}
}
