package obs

import (
	"bytes"
	"runtime"
	"testing"
)

// TestRuntimeFamilies holds the scrape-time runtime families to the
// exposition grammar and to what this process can see of itself.
func TestRuntimeFamilies(t *testing.T) {
	runtime.GC()
	var buf bytes.Buffer
	if err := Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(&buf)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	value := func(name, typ string) float64 {
		t.Helper()
		f, ok := fams[name]
		if !ok || f.Type != typ || len(f.Samples) != 1 {
			t.Fatalf("family %s: %+v, want one %s sample", name, f, typ)
		}
		return f.Samples[0].Value
	}
	if v := value("dlinfma_go_goroutines", "gauge"); v < 1 {
		t.Errorf("goroutines %v", v)
	}
	if v := value("dlinfma_go_heap_live_bytes", "gauge"); v <= 0 {
		t.Errorf("live heap %v bytes", v)
	}
	if v := value("dlinfma_go_gc_cycles_total", "counter"); v < 1 {
		t.Errorf("%v GC cycles after runtime.GC", v)
	}
	if v := value("dlinfma_go_gc_pause_cpu_seconds_total", "counter"); v <= 0 || v > 60 {
		t.Errorf("GC pause total %v cpu-s", v)
	}
	if v := value("dlinfma_go_mutex_wait_seconds_total", "counter"); v < 0 {
		t.Errorf("mutex wait %v s", v)
	}
	if v := value("dlinfma_build_info", "gauge"); v != 1 {
		t.Errorf("build info %v", v)
	}
	if got := fams["dlinfma_build_info"].Samples[0].Labels; got["go_version"] != runtime.Version() || got["revision"] == "" {
		t.Errorf("build info labels %v", got)
	}
}
