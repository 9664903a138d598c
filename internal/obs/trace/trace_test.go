package trace

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDStringParseRoundTrip(t *testing.T) {
	tid := randTraceID()
	sid := randSpanID()
	gotT, err := ParseTraceID(tid.String())
	if err != nil || gotT != tid {
		t.Fatalf("ParseTraceID(%q) = %v, %v; want %v", tid.String(), gotT, err, tid)
	}
	gotS, err := ParseSpanID(sid.String())
	if err != nil || gotS != sid {
		t.Fatalf("ParseSpanID(%q) = %v, %v; want %v", sid.String(), gotS, err, sid)
	}
}

func TestParseIDRejects(t *testing.T) {
	for _, s := range []string{"", "abc", strings.Repeat("0", 32), strings.Repeat("g", 32), strings.Repeat("a", 31)} {
		if _, err := ParseTraceID(s); err == nil {
			t.Errorf("ParseTraceID(%q) accepted", s)
		}
	}
	for _, s := range []string{"", "abc", strings.Repeat("0", 16), strings.Repeat("z", 16), strings.Repeat("a", 15)} {
		if _, err := ParseSpanID(s); err == nil {
			t.Errorf("ParseSpanID(%q) accepted", s)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: randTraceID(), SpanID: randSpanID(), Sampled: true}
	h := sc.Traceparent()
	got, ok := ParseTraceparent(h)
	if !ok || got != sc {
		t.Fatalf("ParseTraceparent(%q) = %+v, %v; want %+v", h, got, ok, sc)
	}
	sc.Sampled = false
	got, ok = ParseTraceparent(sc.Traceparent())
	if !ok || got.Sampled {
		t.Fatalf("unsampled round trip = %+v, %v", got, ok)
	}
}

func TestParseTraceparent(t *testing.T) {
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	const sid = "00f067aa0ba902b7"
	cases := []struct {
		in      string
		ok      bool
		sampled bool
	}{
		{"00-" + tid + "-" + sid + "-01", true, true},
		{"00-" + tid + "-" + sid + "-00", true, false},
		{"  00-" + tid + "-" + sid + "-01  ", true, true},              // whitespace tolerated
		{"00-" + strings.ToUpper(tid) + "-" + sid + "-01", true, true}, // lenient case
		{"cc-" + tid + "-" + sid + "-09-extra-fields", true, true},     // future version, trailing fields
		{"00-" + tid + "-" + sid + "-01-extra", false, false},          // version 00 has exactly 4 fields
		{"ff-" + tid + "-" + sid + "-01", false, false},                // ff version forbidden
		{"00-" + strings.Repeat("0", 32) + "-" + sid + "-01", false, false},
		{"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", false, false},
		{"00-" + tid + "-" + sid + "-1", false, false},
		{"00-" + tid + "-" + sid, false, false},
		{"", false, false},
		{"garbage", false, false},
	}
	for _, c := range cases {
		got, ok := ParseTraceparent(c.in)
		if ok != c.ok {
			t.Errorf("ParseTraceparent(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if ok && got.Sampled != c.sampled {
			t.Errorf("ParseTraceparent(%q) sampled = %v, want %v", c.in, got.Sampled, c.sampled)
		}
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || !isHex(a) {
		t.Fatalf("NewRequestID() = %q, want 16 hex chars", a)
	}
	if a == b {
		t.Fatalf("two request ids collided: %q", a)
	}
}

func TestHeadSampling(t *testing.T) {
	st := NewStore(16)
	// prob 1 → always kept.
	tr := NewTracer(Options{SampleProb: 1, Store: st})
	_, sp := tr.StartRoot(context.Background(), "root", SpanContext{})
	sp.End()
	if st.Len() != 1 {
		t.Fatalf("prob=1: store has %d traces, want 1", st.Len())
	}
	// prob 0 → fast clean trace dropped.
	st = NewStore(16)
	tr = NewTracer(Options{SampleProb: 0, SlowThreshold: time.Hour, Store: st})
	_, sp = tr.StartRoot(context.Background(), "root", SpanContext{})
	sp.End()
	if st.Len() != 0 {
		t.Fatalf("prob=0: store has %d traces, want 0", st.Len())
	}
}

func TestTailRuleError(t *testing.T) {
	st := NewStore(16)
	tr := NewTracer(Options{SampleProb: 0, Store: st})
	ctx, root := tr.StartRoot(context.Background(), "root", SpanContext{})
	_, child := Start(ctx, "child")
	child.RecordError(errors.New("boom"))
	child.End()
	root.End()
	got := st.Get(root.TraceID())
	if got == nil || !got.Error {
		t.Fatalf("errored trace not kept: %+v", got)
	}
	if got.Spans[0].Error != "boom" {
		t.Fatalf("span error = %q, want boom", got.Spans[0].Error)
	}
}

func TestTailRuleSlow(t *testing.T) {
	st := NewStore(16)
	tr := NewTracer(Options{SampleProb: 0, SlowThreshold: time.Nanosecond, Store: st})
	_, root := tr.StartRoot(context.Background(), "root", SpanContext{})
	time.Sleep(time.Millisecond)
	root.End()
	if st.Get(root.TraceID()) == nil {
		t.Fatal("slow trace not kept")
	}
}

func TestRemoteParentContinuesTrace(t *testing.T) {
	st := NewStore(16)
	tr := NewTracer(Options{SampleProb: 0, Store: st}) // head sampler would drop
	parent := SpanContext{TraceID: randTraceID(), SpanID: randSpanID(), Sampled: true}
	ctx, root := tr.StartRoot(context.Background(), "root", parent)
	if root.TraceID() != parent.TraceID {
		t.Fatalf("trace id = %v, want remote %v", root.TraceID(), parent.TraceID)
	}
	if got := root.Context(); !got.Sampled {
		t.Fatal("remote sampled flag not honored")
	}
	_, child := Start(ctx, "child")
	child.End()
	root.End()
	got := st.Get(parent.TraceID)
	if got == nil {
		t.Fatal("remote-sampled trace not kept")
	}
	// Root's recorded parent is the remote span.
	var rootData *SpanData
	for i := range got.Spans {
		if got.Spans[i].Name == "root" {
			rootData = &got.Spans[i]
		}
	}
	if rootData == nil || rootData.ParentID != parent.SpanID.String() {
		t.Fatalf("root parent = %+v, want %s", rootData, parent.SpanID.String())
	}
}

func TestRemoteUnsampledDropped(t *testing.T) {
	st := NewStore(16)
	tr := NewTracer(Options{SampleProb: 1, Store: st}) // local prob would keep
	parent := SpanContext{TraceID: randTraceID(), SpanID: randSpanID(), Sampled: false}
	_, root := tr.StartRoot(context.Background(), "root", parent)
	root.End()
	if st.Len() != 0 {
		t.Fatal("remote-unsampled trace kept despite local prob=1")
	}
}

func TestHierarchyAttrsEvents(t *testing.T) {
	st := NewStore(16)
	tr := NewTracer(Options{SampleProb: 1, Store: st})
	ctx, root := tr.StartRoot(context.Background(), "root", SpanContext{})
	cctx, child := Start(ctx, "child")
	child.SetAttr("shard", 2)
	_, grand := Start(cctx, "grand")
	grand.End()
	child.End()
	root.End()

	got := st.Get(root.TraceID())
	if got == nil {
		t.Fatal("trace missing")
	}
	if len(got.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(got.Spans))
	}
	byName := map[string]SpanData{}
	for _, sd := range got.Spans {
		byName[sd.Name] = sd
	}
	if byName["child"].ParentID != byName["root"].SpanID {
		t.Fatalf("child parent = %q, want root %q", byName["child"].ParentID, byName["root"].SpanID)
	}
	if byName["grand"].ParentID != byName["child"].SpanID {
		t.Fatalf("grand parent = %q, want child %q", byName["grand"].ParentID, byName["child"].SpanID)
	}
	if byName["root"].ParentID != "" {
		t.Fatalf("root has parent %q", byName["root"].ParentID)
	}
	c := byName["child"]
	if len(c.Attrs) != 1 || c.Attrs[0].Key != "shard" || c.Attrs[0].Value != 2 {
		t.Fatalf("child attrs = %+v", c.Attrs)
	}
	for _, sd := range got.Spans {
		if sd.TraceID != root.TraceID().String() {
			t.Fatalf("span %s trace id %q, want %q", sd.Name, sd.TraceID, root.TraceID())
		}
	}
}

func TestMaxSpansDropped(t *testing.T) {
	st := NewStore(16)
	tr := NewTracer(Options{SampleProb: 1, Store: st})
	ctx, root := tr.StartRoot(context.Background(), "root", SpanContext{})
	for i := 0; i < maxSpans+2; i++ {
		_, sp := Start(ctx, fmt.Sprintf("c%d", i))
		sp.End()
	}
	root.End()
	got := st.Get(root.TraceID())
	if got == nil {
		t.Fatal("trace missing")
	}
	// The first maxSpans children fill the cap; 2 children + the root are
	// dropped.
	if len(got.Spans) != maxSpans || got.Dropped != 3 {
		t.Fatalf("spans=%d dropped=%d, want %d and 3", len(got.Spans), got.Dropped, maxSpans)
	}
}

func TestEndIdempotentAndStragglers(t *testing.T) {
	st := NewStore(16)
	tr := NewTracer(Options{SampleProb: 1, Store: st})
	ctx, root := tr.StartRoot(context.Background(), "root", SpanContext{})
	_, straggler := Start(ctx, "straggler")
	root.End()
	root.End() // idempotent: no second publish
	straggler.End()
	straggler.SetAttr("late", true) // no-op after End
	if st.Len() != 1 {
		t.Fatalf("store has %d traces, want 1", st.Len())
	}
	got := st.Get(root.TraceID())
	if len(got.Spans) != 1 || got.Spans[0].Name != "root" {
		t.Fatalf("straggler leaked into sealed trace: %+v", got.Spans)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartRoot(context.Background(), "root", SpanContext{})
	if sp != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	if tr.Store() != nil {
		t.Fatal("nil tracer returned non-nil store")
	}
	// All span methods absorb nil.
	sp.SetAttr("k", "v")
	sp.RecordError(errors.New("x"))
	sp.End()
	if !sp.ID().IsZero() || !sp.TraceID().IsZero() || sp.Context().IsValid() {
		t.Fatal("nil span leaked identity")
	}
	// Start below a context with no span is also nil.
	_, child := Start(ctx, "child")
	if child != nil {
		t.Fatal("Start without active span returned non-nil")
	}
	if got := SpanFromContext(context.Background()); got != nil {
		t.Fatalf("SpanFromContext(bare) = %v", got)
	}
	// Nil store absorbs everything.
	var s *Store
	s.Add(&Trace{})
	if s.Len() != 0 || s.Get(TraceID{}) != nil || s.List(Filter{}) != nil {
		t.Fatal("nil store not inert")
	}
}

func TestStoreRingEviction(t *testing.T) {
	s := NewStore(3)
	var ids []TraceID
	for i := 0; i < 5; i++ {
		id := randTraceID()
		ids = append(ids, id)
		s.Add(&Trace{ID: id, Start: time.Unix(int64(i), 0)})
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, old := range ids[:2] {
		if s.Get(old) != nil {
			t.Fatalf("evicted trace %v still present", old)
		}
	}
	got := s.List(Filter{})
	if len(got) != 3 {
		t.Fatalf("List = %d traces, want 3", len(got))
	}
	// Newest first.
	for i, want := range []TraceID{ids[4], ids[3], ids[2]} {
		if got[i].ID != want {
			t.Fatalf("List[%d] = %v, want %v", i, got[i].ID, want)
		}
	}
}

func TestStoreListFilter(t *testing.T) {
	s := NewStore(8)
	fast := &Trace{ID: randTraceID(), Duration: time.Millisecond}
	slow := &Trace{ID: randTraceID(), Duration: time.Second}
	bad := &Trace{ID: randTraceID(), Duration: 2 * time.Millisecond, Error: true}
	s.Add(fast)
	s.Add(slow)
	s.Add(bad)

	if got := s.List(Filter{MinDuration: 100 * time.Millisecond}); len(got) != 1 || got[0].ID != slow.ID {
		t.Fatalf("MinDuration filter = %+v", got)
	}
	if got := s.List(Filter{ErrorOnly: true}); len(got) != 1 || got[0].ID != bad.ID {
		t.Fatalf("ErrorOnly filter = %+v", got)
	}
	if got := s.List(Filter{Limit: 2}); len(got) != 2 {
		t.Fatalf("Limit filter returned %d", len(got))
	}
	if got := s.List(Filter{}); len(got) != 3 {
		t.Fatalf("unfiltered = %d", len(got))
	}
}

// TestConcurrentSpans exercises the shared trace state from many goroutines
// — the scenario the sharded engine creates — and is the -race anchor.
func TestConcurrentSpans(t *testing.T) {
	st := NewStore(4)
	tr := NewTracer(Options{SampleProb: 1, Store: st})
	ctx, root := tr.StartRoot(context.Background(), "root", SpanContext{})
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sctx, sp := Start(ctx, "shard")
			sp.SetAttr("shard", i)
			_, inner := Start(sctx, "stage")
			inner.End()
			if i%3 == 0 {
				sp.RecordError(errors.New("shard failure"))
			}
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	got := st.Get(root.TraceID())
	if got == nil {
		t.Fatal("trace missing")
	}
	if len(got.Spans) != 2*workers+1 {
		t.Fatalf("got %d spans, want %d", len(got.Spans), 2*workers+1)
	}
	if !got.Error {
		t.Fatal("shard errors not surfaced on trace")
	}
	// Concurrent Adds to the store as well.
	var wg2 sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			_, sp := tr.StartRoot(context.Background(), "r", SpanContext{})
			sp.End()
		}()
	}
	wg2.Wait()
	if st.Len() != 4 {
		t.Fatalf("store len = %d, want capacity 4", st.Len())
	}
}

// FuzzTraceparent holds ParseTraceparent to three properties on any header:
// it never panics, what it accepts is a valid span context, and the accepted
// context renders back to a header that parses to itself.
func FuzzTraceparent(f *testing.F) {
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	const sid = "00f067aa0ba902b7"
	f.Add(SpanContext{TraceID: TraceID{0: 0x4b, 15: 0x36}, SpanID: SpanID{7: 0xb7}, Sampled: true}.Traceparent())
	f.Add("00-" + strings.Repeat("0", 32) + "-" + sid + "-01")
	f.Add("ff-" + tid + "-" + sid + "-01")
	f.Add("cc-" + tid + "-" + sid + "-09-extra-fields")
	f.Add("00-" + strings.ToUpper(tid) + "-" + strings.ToUpper(sid) + "-0A")
	f.Fuzz(func(t *testing.T, h string) {
		sc, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if !sc.IsValid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid %+v", h, sc)
		}
		if got, ok := ParseTraceparent(sc.Traceparent()); !ok || got != sc {
			t.Fatalf("ParseTraceparent(%q) = %+v, but its rendering %q parses to %+v, %v", h, sc, sc.Traceparent(), got, ok)
		}
	})
}
