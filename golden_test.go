package dlinfma

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"dlinfma/internal/engine"
	"dlinfma/internal/eval"
	"dlinfma/internal/synth"
)

// refreshSnapshotSHA256 is the hash of the snapshot one engine writes after
// IngestDataset + Reinfer on the benchmark's reinfer_refresh dataset with
// the configuration `dlinfma serve -workers 0` runs. It was recorded from
// the commit before internal/nn's kernels and fused nodes existed (PR 22,
// 57fbd73) on amd64: the re-inference trains LocMatcher for 52 epochs, so an
// equal hash says those ~9,500 per-sample graphs still perform the same
// floating-point operations in the same order.
const refreshSnapshotSHA256 = "407daba5722ce9de3deeec2b9774cbc0def822f34c724481961b1d1871e2d064"

// TestRefreshSnapshotGolden is the engine-level half of the bit-identity
// contract (the nn- and core-level halves are internal/nn's oracle tests and
// core.TestFitGolden): same data, same snapshot bytes as the parent commit.
func TestRefreshSnapshotGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the refresh profile's matcher to early stopping")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64; an architecture that contracts a*b+c rounds differently")
	}
	// bench/internal/gen.RefreshProfile, which this module cannot import.
	p := synth.DowBJ()
	p.Name = "DowBJ-third"
	p.NBuildings = 50
	p.Extent = 1400
	p.Days = 40
	ds, _, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig() // cmd/dlinfma's engineConfig(0)
	cfg.Matcher = eval.ExperimentLocMatcherConfig()
	e := engine.New(cfg)
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
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != refreshSnapshotSHA256 {
		t.Fatalf("snapshot after re-inference moved: sha256 %s (%d bytes), want %s", got, buf.Len(), refreshSnapshotSHA256)
	}
}
