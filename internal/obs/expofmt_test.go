package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseExposition feeds the exposition parser arbitrary documents: it is
// what a cluster frontend runs on every peer's /v1/metrics. It must never
// panic, and a document it accepts must give every family a TYPE and keep a
// histogram family's samples to its _bucket, _sum and _count series. The
// seeds under testdata/exposition are a whole server scrape after a stream
// session and a re-inference, and the peer re-export test's document.
func FuzzParseExposition(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "exposition", "*.txt"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no exposition seeds: %v", err)
	}
	for _, path := range seeds {
		doc, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(doc))
	}
	f.Fuzz(func(t *testing.T, doc string) {
		fams, err := ParseExposition(strings.NewReader(doc))
		if err != nil {
			return
		}
		for name, fam := range fams {
			if fam.Type == "" {
				t.Fatalf("family %q accepted without a TYPE", name)
			}
			if fam.Type != "histogram" {
				continue
			}
			for _, s := range fam.Samples {
				if s.Name != name+"_bucket" && s.Name != name+"_sum" && s.Name != name+"_count" {
					t.Fatalf("histogram %q holds sample %q", name, s.Name)
				}
			}
		}
	})
}
