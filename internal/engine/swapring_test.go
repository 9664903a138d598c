package engine

import (
	"context"
	"testing"

	"dlinfma/internal/synth"
)

// TestSwapReportLimit pins the ring semantics: history is bounded by the
// ring's capacity and list limits apply newest-first. The engine keeps
// swapHistory reports; its shard's ring is shrunk to 2 so three
// re-inferences overflow it.
func TestSwapReportLimit(t *testing.T) {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	e := New(streamTestConfig())
	defer e.Close()
	e.shards[0].swaps = newSwapRing(2)
	ctx := context.Background()
	if err := e.IngestDataset(ctx, ds); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Reinfer(ctx); err != nil {
			t.Fatal(err)
		}
	}
	reps := e.SwapReports(0)
	if len(reps) != 2 {
		t.Fatalf("ring kept %d reports, want 2", len(reps))
	}
	if reps[0].Seq != 3 || reps[1].Seq != 2 {
		t.Errorf("kept seqs %d,%d, want 3,2 (newest first, oldest evicted)", reps[0].Seq, reps[1].Seq)
	}
	if got := e.SwapReports(1); len(got) != 1 || got[0].Seq != 3 {
		t.Errorf("SwapReports(1) = %+v, want just seq 3", got)
	}
}
