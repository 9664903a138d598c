package tracesrv

import (
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"
)

func TestSampledOneInSixteen(t *testing.T) {
	n := 0
	for seq := 0; seq < 1600; seq++ {
		if Sampled("c1-" + strconv.Itoa(seq)) {
			n++
			if seq%SampleEvery != 0 {
				t.Fatalf("sequence %d sampled", seq)
			}
		}
	}
	if n != 100 {
		t.Errorf("%d of 1600 sampled, want 100", n)
	}
	for _, id := range []string{"", "final", "abc-"} {
		if Sampled(id) {
			t.Errorf("id %q sampled", id)
		}
	}
}

// TestSelfTimes: self time is a span minus what its children cover, and the
// three layers of a request add up to its client span.
func TestSelfTimes(t *testing.T) {
	us := func(n int64) int64 { return n * int64(time.Microsecond) }
	var spans []Span
	for i, client := range []int64{100, 80, 120} {
		req := "c0-" + strconv.Itoa(16*i)
		spans = append(spans,
			Span{Name: "client", ID: req, Req: req, Start: 0, End: us(client)},
			Span{Name: "deploy", ID: req + "/deploy", Parent: req, Req: req, Start: us(30), End: us(40)},
			Span{Name: "engine", Parent: req + "/deploy", Req: req, Start: us(32), End: us(33)},
			Span{Name: "engine", Parent: req + "/deploy", Req: req, Start: us(34), End: us(36)},
		)
	}
	// A request cut off by the end of the run has no client span: left out.
	spans = append(spans, Span{Name: "deploy", ID: "c0-48/deploy", Parent: "c0-48", Req: "c0-48", Start: 0, End: us(10)})
	got := SelfTimes(spans)
	want := Self{Requests: 3, Client: 100 * time.Microsecond, HTTP: 90 * time.Microsecond,
		Deploy: 7 * time.Microsecond, Engine: 3 * time.Microsecond}
	if got != want {
		t.Errorf("SelfTimes = %+v, want %+v", got, want)
	}
	if got.HTTP+got.Deploy+got.Engine != got.Client {
		t.Error("layer self times do not add up to the client span")
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := WriteSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spans) {
		t.Error("spans changed on the way through the file")
	}
}
