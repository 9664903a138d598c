package obs

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// TestHDRIndexMonotone walks the bucket index across magnitudes: it must be
// monotone non-decreasing, and the bucket's exposed upper edge must sit at
// most the promised relative error above the value.
func TestHDRIndexMonotone(t *testing.T) {
	prev := -1
	for us := int64(0); us < 1<<22; us += 97 {
		i := hdrIndex(us)
		if i < prev {
			t.Fatalf("hdrIndex(%d)=%d < previous %d", us, i, prev)
		}
		prev = i
		up := hdrUpperUS(i)
		if diff := float64(up-us) / float64(us+1); up < us || diff > 1.0/hdrSubCount {
			t.Fatalf("hdrUpperUS(hdrIndex(%d))=%d off by %.3f", us, up, diff)
		}
	}
}

// TestHDRUpperBound checks the exposition bucket edge: hdrUpperUS(i) is the
// largest value landing in bucket i — one step below where bucket i+1 starts.
func TestHDRUpperBound(t *testing.T) {
	for i := 0; i < hdrBuckets-1; i++ {
		up := hdrUpperUS(i)
		if up == 1<<63-1 {
			// Reached the clamped top region (bounds past MaxInt64 µs —
			// ~292k-year latencies no Record call can produce).
			break
		}
		if got := hdrIndex(up); got != i {
			t.Fatalf("hdrIndex(hdrUpperUS(%d)=%d) = %d, want %d", i, up, got, i)
		}
		if next := hdrUpperUS(i + 1); next <= up {
			t.Fatalf("hdrUpperUS not strictly increasing at %d: %d then %d", i, up, next)
		}
		if got := hdrIndex(up + 1); got != i+1 {
			t.Fatalf("hdrIndex(%d) = %d, want next bucket %d", up+1, got, i+1)
		}
	}
}

// TestHDRExpositionRoundTrip registers an HDR histogram (plain and vec),
// records a spread of values, and checks that WritePrometheus output parses
// back through ParseExposition with the right family type, a monotone
// non-decreasing cumulative bucket sequence over strictly increasing le
// edges, and consistent _count/_sum/+Inf samples.
func TestHDRExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	h := reg.HDRHistogram("test_hdr_seconds", "hdr exposition round-trip")
	hv := reg.HDRHistogramVec("test_hdr_vec_seconds", "labelled hdr family", "shard")
	rng := rand.New(rand.NewSource(11))
	var sum float64
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Int63n(3_000_000)) * time.Microsecond
		h.Record(d)
		sum += d.Seconds()
		hv.With(strconv.Itoa(i % 3)).Record(d)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	for _, name := range []string{"test_hdr_seconds", "test_hdr_vec_seconds"} {
		fam := fams[name]
		if fam == nil {
			t.Fatalf("family %s missing", name)
		}
		if fam.Type != "histogram" {
			t.Fatalf("family %s type %q, want histogram", name, fam.Type)
		}
	}

	// Validate cumulative-bucket shape per label set.
	type series struct {
		les    []float64
		counts []float64
		inf    float64
		count  float64
		sum    float64
	}
	byShard := map[string]*series{}
	get := func(sh string) *series {
		s := byShard[sh]
		if s == nil {
			s = &series{}
			byShard[sh] = s
		}
		return s
	}
	for _, sm := range fams["test_hdr_seconds"].Samples {
		s := get("")
		switch sm.Name {
		case "test_hdr_seconds_bucket":
			if sm.Labels["le"] == "+Inf" {
				s.inf = sm.Value
				continue
			}
			le, err := strconv.ParseFloat(sm.Labels["le"], 64)
			if err != nil {
				t.Fatalf("unparseable le %q: %v", sm.Labels["le"], err)
			}
			s.les = append(s.les, le)
			s.counts = append(s.counts, sm.Value)
		case "test_hdr_seconds_count":
			s.count = sm.Value
		case "test_hdr_seconds_sum":
			s.sum = sm.Value
		}
	}
	s := get("")
	if len(s.les) == 0 {
		t.Fatal("no finite buckets exposed")
	}
	for i := 1; i < len(s.les); i++ {
		if s.les[i] <= s.les[i-1] {
			t.Fatalf("le edges not strictly increasing: %v then %v", s.les[i-1], s.les[i])
		}
		if s.counts[i] < s.counts[i-1] {
			t.Fatalf("cumulative counts decreasing: %v then %v at le=%v", s.counts[i-1], s.counts[i], s.les[i])
		}
	}
	if s.inf != 5000 || s.count != 5000 {
		t.Fatalf("+Inf=%v count=%v, want 5000", s.inf, s.count)
	}
	if s.counts[len(s.counts)-1] > s.inf {
		t.Fatalf("last finite bucket %v exceeds +Inf %v", s.counts[len(s.counts)-1], s.inf)
	}
	// Sum is recorded in whole microseconds; allow that much slack.
	if diff := s.sum - sum; diff > 0.01 || diff < -0.01 {
		t.Fatalf("sum %v, want ~%v", s.sum, sum)
	}

	// Vec children: every shard label present, each summing to its share.
	var vecTotal float64
	for _, sm := range fams["test_hdr_vec_seconds"].Samples {
		if sm.Name == "test_hdr_vec_seconds_count" {
			vecTotal += sm.Value
			if sm.Labels["shard"] == "" {
				t.Fatalf("vec sample missing shard label: %+v", sm)
			}
		}
	}
	if vecTotal != 5000 {
		t.Fatalf("vec counts sum %v, want 5000", vecTotal)
	}
}

// TestHDRObserveValues exposes one Observe per row and reads back its
// bucket edge and sum: a value lands in a bucket whose edge sits at most
// 1/32 above it, zero, negatives and NaN land at zero, and a value past a
// Duration's range saturates into the top bucket rather than wrapping to 0.
func TestHDRObserveValues(t *testing.T) {
	top := time.Duration(math.MaxInt64).Microseconds()
	topLE := float64(hdrUpperUS(hdrIndex(top))) / 1e6
	for _, tc := range []struct {
		v, wantSum float64
		saturated  bool
	}{
		{v: 0},
		{v: 0.53, wantSum: 0.53},
		{v: 0.999, wantSum: 0.999},
		{v: 3, wantSum: 3},
		{v: 2500, wantSum: 2500},
		{v: 4096, wantSum: 4096},
		{v: 1e10, wantSum: float64(top) / 1e6, saturated: true},
		{v: math.Inf(1), wantSum: float64(top) / 1e6, saturated: true},
		{v: math.NaN()},
		{v: -1},
	} {
		reg := NewRegistry()
		reg.HDRHistogram("v", "").Observe(tc.v)
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseExposition(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var le, sum float64
		for _, s := range fams["v"].Samples {
			switch {
			case s.Name == "v_bucket" && s.Labels["le"] != "+Inf":
				if le, err = strconv.ParseFloat(s.Labels["le"], 64); err != nil {
					t.Fatal(err)
				}
			case s.Name == "v_sum":
				sum = s.Value
			}
		}
		switch {
		case tc.saturated:
			if le != topLE {
				t.Errorf("Observe(%v): le=%v, want the top bucket %v", tc.v, le, topLE)
			}
		case tc.wantSum == 0:
			if le != 0 {
				t.Errorf("Observe(%v): le=%v, want 0", tc.v, le)
			}
		case le < tc.v || le > tc.v*(1+1.0/hdrSubCount):
			t.Errorf("Observe(%v): le=%v, not within 1/%d above it", tc.v, le, hdrSubCount)
		}
		if math.Abs(sum-tc.wantSum) > 1e-6*math.Max(1, tc.wantSum) {
			t.Errorf("Observe(%v): sum=%v, want %v", tc.v, sum, tc.wantSum)
		}
	}
}

// TestHDRObserveSeconds checks Observe records seconds on the same scale as
// Record, and that obs.StartSpan records into the histogram.
func TestHDRObserveSeconds(t *testing.T) {
	h := NewHDRHistogram()
	h.Observe(0.005)
	h.Observe(-1) // clamps to zero, still counts
	if h.Count() != 2 {
		t.Fatalf("count %d, want 2", h.Count())
	}
	if zero, five := h.counts[0].Load(), h.counts[hdrIndex(5000)].Load(); zero != 1 || five != 1 {
		t.Fatalf("bucket counts: 0µs %d, 5ms %d, want 1 each", zero, five)
	}
	sp := StartSpan("stage", h)
	if sp.End() < 0 {
		t.Fatal("span duration negative")
	}
	if h.Count() != 3 {
		t.Fatalf("span did not observe: count %d", h.Count())
	}
}
