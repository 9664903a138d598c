package gen

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"dlinfma/internal/engine"
	"dlinfma/internal/model"
)

// digest hashes every input a seed produces: the snapshot document, the
// lookup key streams, the batch bodies with their expected answers, and the
// streamed corpus.
func digest(t *testing.T, seed int64) string {
	t.Helper()
	h := sha256.New()
	city := NewCity(seed, 4000)
	h.Write(city.Doc())
	perm := Perm(seed, 4000)
	for conn := 0; conn < 2; conn++ {
		k := NewKeys(seed, conn, perm)
		for i := 0; i < 1000; i++ {
			id, known := k.Next()
			fmt.Fprintln(h, id, known)
		}
	}
	for _, b := range Batches(seed, 3, city) {
		h.Write(b.Body)
		h.Write(b.Want)
	}
	bursts, err := StreamCorpus(seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bursts {
		h.Write(b.Body)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b, c := digest(t, 7), digest(t, 7), digest(t, 8)
	if a != b {
		t.Errorf("seed 7 gave two different input sets: %s and %s", a, b)
	}
	if a == c {
		t.Error("seeds 7 and 8 gave the same inputs")
	}
}

// TestCityAnswersAreTheEnginesAnswers restores the generated snapshot into a
// real engine and checks the expected answer of every key, on two seeds: the
// workloads compare served bytes against these expectations, so they must be
// what the fallback chain (address -> building majority -> geocode) gives.
func TestCityAnswersAreTheEnginesAnswers(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		city := NewCity(seed, 4000)
		e := engine.New(engine.DefaultConfig())
		if err := e.RestoreSnapshot(bytes.NewReader(city.Doc())); err != nil {
			t.Fatal(err)
		}
		sources := map[string]int{}
		for id := int64(0); id < 4000; id++ {
			want, ok := city.Want(id)
			if !ok {
				t.Fatalf("id %d unknown to the city", id)
			}
			loc, src := e.Query(model.AddressID(id))
			if src.String() != want.Source || loc.X != want.X || loc.Y != want.Y {
				t.Fatalf("seed %d id %d: engine answers %v %s, generator expects %+v", seed, id, loc, src, want)
			}
			sources[want.Source]++
		}
		e.Close()
		if sources["address"] != 3600 || sources["building"] != 200 || sources["geocode"] != 200 {
			t.Errorf("seed %d: sources %v, want 90%% address, 5%% building, 5%% geocode", seed, sources)
		}
		if _, ok := city.Want(4000); ok {
			t.Error("id 4000 should be unknown")
		}
	}
}

// TestKeyMix checks the 2 % share of unknown ids and the Zipf head.
func TestKeyMix(t *testing.T) {
	perm := Perm(3, 10000)
	k := NewKeys(3, 0, perm)
	unknown, head := 0, 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		id, known := k.Next()
		switch {
		case !known:
			unknown++
			if id < 10000 {
				t.Fatalf("unknown id %d is inside the store", id)
			}
		case id == int64(perm[0]):
			head++
		}
	}
	if unknown < draws/100 || unknown > draws*3/100 {
		t.Errorf("%d of %d draws unknown, want about 2 %%", unknown, draws)
	}
	if head < draws/20 {
		t.Errorf("the most popular id drew %d of %d, want a Zipf head", head, draws)
	}
}

func TestBurstShape(t *testing.T) {
	bursts, err := StreamCorpus(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bursts) != 600 {
		t.Fatalf("%d bursts, want 2 x 300", len(bursts))
	}
	b := bursts[300]
	lines := bytes.Split(bytes.TrimSuffix(b.Body, []byte("\n")), []byte("\n"))
	if len(lines) != b.Points+1 {
		t.Fatalf("%d lines for %d points", len(lines), b.Points)
	}
	if want := `{"courier":301,"end":true}`; string(lines[len(lines)-1]) != want {
		t.Errorf("last line %s, want %s", lines[len(lines)-1], want)
	}
}
