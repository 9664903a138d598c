package engine

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"dlinfma/internal/core"
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

// TestReinferLeavesCandidatelessAddressesToFallback: a re-inference answers
// only the addresses it picked a candidate for. An address with no trips, or
// with trips but no admissible candidate, is answered by the frozen fallback
// chain — building majority or geocode — never as an address answer, and
// every address answer carries a confidence in (0, 1].
func TestReinferLeavesCandidatelessAddressesToFallback(t *testing.T) {
	ds, _, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	// A copy of an address under a new key: same building, no trips.
	tripless := ds.Addresses[0]
	for _, a := range ds.Addresses {
		tripless.ID = max(tripless.ID, a.ID+1)
	}
	ds.Addresses = append(ds.Addresses, tripless)
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
			if err := e.Reinfer(ctx); err != nil {
				t.Fatal(err)
			}
			if _, src := e.Query(tripless.ID); src != deploy.SourceBuilding && src != deploy.SourceGeocode {
				t.Errorf("address %d has no trips and answers from %v", tripless.ID, src)
			}
			without := 0
			for _, s := range e.shards {
				sds, pool, _, err := s.ev.view(ctx)
				if err != nil {
					t.Fatal(err)
				}
				pipe := core.NewPipelineWithPool(sds, s.cfg.Core, pool)
				f := s.frozen()
				for _, a := range sds.Addresses {
					if pipe.BuildSample(a.ID, s.cfg.Sample) != nil {
						continue
					}
					without++
					if ans, _ := f.Lookup(a.ID); ans.Src != deploy.SourceBuilding && ans.Src != deploy.SourceGeocode {
						t.Errorf("address %d has no candidate and answers from %v", a.ID, ans.Src)
					}
				}
				f.Each(func(addr model.AddressID, a deploy.FrozenAnswer) {
					if a.Src == deploy.SourceAddress && !(a.Conf > 0 && a.Conf <= 1) {
						t.Errorf("address %d answers with confidence %v", addr, a.Conf)
					}
				})
			}
			if without < 2 {
				t.Fatalf("%d addresses without a candidate; the check is vacuous", without)
			}
		})
	}
}
