package engine

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"dlinfma/internal/deploy"
	"dlinfma/internal/model"
	"dlinfma/internal/obs"
	"dlinfma/internal/shard"
	"dlinfma/internal/synth"
)

// confidenceCount scrapes the process-wide registry for the reinfer
// confidence histogram's sample count, summed over every shard label.
func confidenceCount(t *testing.T) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var n float64
	if fam := fams["dlinfma_reinfer_confidence"]; fam != nil {
		for _, s := range fam.Samples {
			if strings.HasSuffix(s.Name, "_count") {
				n += s.Value
			}
		}
	}
	return n
}

// TestReinferObservesEveryConfidenceStamp: one re-inference observes the
// top-1 probability of every answer it stamps with a confidence, once, into
// dlinfma_reinfer_confidence. The registry is process-wide, so the count is
// read as its change across the re-inference.
func TestReinferObservesEveryConfidenceStamp(t *testing.T) {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			var e *Engine
			if n == 1 {
				e = New(streamTestConfig())
			} else {
				r, err := shard.NewRouter(n, 8)
				if err != nil {
					t.Fatal(err)
				}
				e = NewSharded(streamTestConfig(), r)
			}
			defer e.Close()
			ctx := context.Background()
			if err := e.IngestDataset(ctx, ds); err != nil {
				t.Fatal(err)
			}
			before := confidenceCount(t)
			if err := e.Reinfer(ctx); err != nil {
				t.Fatal(err)
			}
			observed := confidenceCount(t) - before
			stamped := 0
			for _, s := range e.shards {
				s.frozen().Each(func(_ model.AddressID, a deploy.FrozenAnswer) {
					if a.Src == deploy.SourceAddress && a.Conf > 0 {
						stamped++
					}
				})
			}
			if stamped == 0 {
				t.Fatal("no answer carries a confidence stamp; the count is vacuous")
			}
			if observed != float64(stamped) {
				t.Errorf("confidence histogram grew by %v, %d answers carry a confidence stamp", observed, stamped)
			}
		})
	}
}
