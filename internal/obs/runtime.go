package obs

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
)

// The process's own health, read from runtime/metrics at scrape time: nothing
// is recorded on any request path, and a scrape costs one metrics.Read.
func init() {
	Default.Exposer("dlinfma_go_runtime", exposeRuntime)
	Default.Exposer("dlinfma_build_info", exposeBuildInfo)
}

// runtimeFamilies are the runtime/metrics samples exposed, in exposition
// order. The GC pause is the runtime's cpu-seconds as it reports them (a
// stop-the-world pause counts once per P), not divided by GOMAXPROCS: a
// quotient would step down whenever GOMAXPROCS changed, and a counter must
// not.
var runtimeFamilies = []struct {
	sample, name, typ, help string
}{
	{"/sched/goroutines:goroutines", "dlinfma_go_goroutines", "gauge",
		"Live goroutines."},
	{"/gc/heap/live:bytes", "dlinfma_go_heap_live_bytes", "gauge",
		"Heap bytes the last garbage collection marked live."},
	{"/gc/cycles/total:gc-cycles", "dlinfma_go_gc_cycles_total", "counter",
		"Completed garbage-collection cycles."},
	{"/cpu/classes/gc/pause:cpu-seconds", "dlinfma_go_gc_pause_cpu_seconds_total", "counter",
		"The runtime's estimate of CPU time spent in stop-the-world garbage-collection pauses: each pause's wall time times GOMAXPROCS."},
	{"/sync/mutex/wait/total:seconds", "dlinfma_go_mutex_wait_seconds_total", "counter",
		"Time goroutines spent blocked on a sync.Mutex or sync.RWMutex."},
}

func exposeRuntime(w io.Writer) {
	samples := make([]metrics.Sample, len(runtimeFamilies))
	for i, f := range runtimeFamilies {
		samples[i].Name = f.sample
	}
	metrics.Read(samples)
	for i, f := range runtimeFamilies {
		var v float64
		switch s := samples[i].Value; s.Kind() {
		case metrics.KindUint64:
			v = float64(s.Uint64())
		case metrics.KindFloat64:
			v = s.Float64()
		default:
			continue // not in this toolchain's runtime
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", f.name, f.help, f.name, f.typ, f.name, formatFloat(v))
	}
}

// buildInfo is the dlinfma_build_info sample: the toolchain, and the VCS
// revision the go command stamped into the binary ("unknown" outside a
// checkout, and in test binaries).
var buildInfo = func() string {
	revision := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				revision = s.Value
			}
		}
	}
	return "dlinfma_build_info" + renderLabels([]string{"go_version", "revision"},
		[]string{runtime.Version(), revision}) + " 1\n"
}()

func exposeBuildInfo(w io.Writer) {
	fmt.Fprint(w, "# HELP dlinfma_build_info The binary's Go toolchain and VCS revision; always 1.\n"+
		"# TYPE dlinfma_build_info gauge\n", buildInfo)
}
