package work

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"dlinfma/bench/internal/proc"
	"dlinfma/bench/internal/tracesrv"
	"dlinfma/internal/synth"
)

var bins struct{ server, self string }

// TestMain builds the server under test and the harness (whose "serve"
// subcommand is the traced child) once, and shrinks the inputs so the
// workloads run in seconds: these tests check the flows and the output
// checks, not the numbers.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dlbench-work-test")
	if err != nil {
		panic(err)
	}
	bins.server, bins.self = filepath.Join(dir, "dlinfma"), filepath.Join(dir, "dlbench")
	for bin, pkg := range map[string]string{bins.server: "dlinfma/cmd/dlinfma", bins.self: "dlinfma/bench/cmd/dlbench"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "build %s: %v\n%s", pkg, err, out)
			os.Exit(1)
		}
	}
	citySize, warmUp, refreshProfile = 4000, 100*time.Millisecond, synth.Tiny
	code := m.Run()
	proc.KillAll()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testConfig(t *testing.T, seed int64) Config {
	dir := t.TempDir()
	return Config{ServerBin: bins.server, SelfBin: bins.self, TmpDir: filepath.Join(dir, "tmp"),
		OutDir: filepath.Join(dir, "out"), Seed: seed, Seconds: 1, Conns: 2, Log: testWriter{t}}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(b []byte) (int, error) { w.t.Log(string(b)); return len(b), nil }

// TestWorkloadsOnTwoSeeds runs every workload untraced on two seeds: every
// answer checked, no operation failed, all five end-to-end metrics positive.
func TestWorkloadsOnTwoSeeds(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, name := range Names {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				t.Parallel()
				res, err := Run(testConfig(t, seed), name, false)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%d of %d operations failed; first: %s", res.Failed, res.Attempted, res.FirstErr)
				}
				if len(res.Metrics) != 5 {
					t.Fatalf("%d end-to-end metrics, want 5", len(res.Metrics))
				}
				for _, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s = %v %s, want a positive number", m.Name, m.Value, m.Unit)
					}
				}
			})
		}
	}
}

// TestTracedRun: the traced run of a lookup and of the streamed ingest write
// their span files and every sampled request carries all three layers; for
// the lookup, whose requests are all alike, the layers' median self times
// add up to the median client span.
func TestTracedRun(t *testing.T) {
	for _, name := range []string{"point_lookup", "stream_ingest"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(t, 3)
			res, err := Run(cfg, name, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%d of %d operations failed; first: %s", res.Failed, res.Attempted, res.FirstErr)
			}
			spans, err := tracesrv.ReadSpans(filepath.Join(cfg.OutDir, "trace-"+name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			layers := map[string]map[string]int{}
			for _, s := range spans {
				if !tracesrv.Sampled(s.Req) {
					t.Fatalf("span of unsampled request %q", s.Req)
				}
				if layers[s.Req] == nil {
					layers[s.Req] = map[string]int{}
				}
				layers[s.Req][s.Name]++
			}
			complete := 0
			for _, l := range layers {
				if l["client"] == 1 && l["deploy"] == 1 && l["engine"] >= 1 {
					complete++
				}
			}
			if complete < 10 || complete < len(layers)*9/10 {
				t.Errorf("%d of %d sampled requests have client, deploy and engine spans", complete, len(layers))
			}
			self := tracesrv.SelfTimes(spans)
			if sum := self.HTTP + self.Deploy + self.Engine; name == "point_lookup" && (sum < self.Client*8/10 || sum > self.Client*12/10) {
				t.Errorf("median self times %v + %v + %v = %v, median client span %v", self.HTTP, self.Deploy, self.Engine, sum, self.Client)
			}
		})
	}
}

// TestWrongAnswerIsCounted: a store that disagrees with the generated
// snapshot in one address must fail the run, not pass unnoticed.
func TestWrongAnswerIsCounted(t *testing.T) {
	cfg := testConfig(t, 4)
	if err := os.MkdirAll(cfg.TmpDir, 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := newLookup(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	for id := range l.city.Locations { // serve a store moved one metre east of the expected one
		p := l.city.Locations[id]
		p.X++
		l.city.Locations[id] = p
	}
	if err := os.WriteFile(l.snap, l.city.Doc(), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := runPlain(cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Fatalf("0 of %d batch answers failed against a store that serves other locations", res.Attempted)
	}
}
