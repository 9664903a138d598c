package loadgen

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Dashboard renders a live terminal view of a running swarm: one line per
// endpoint (counts, error count, interval percentiles) plus a sparkline of
// achieved qps over the recent timeseries. It redraws in place with ANSI
// cursor movement; pass it a plain io.Writer and call Render on each
// timeseries sample. No escape codes are emitted until the first Render, so
// constructing one unconditionally is harmless.
type Dashboard struct {
	mu    sync.Mutex
	w     io.Writer
	ts    *Timeseries
	stats *Stats
	lines int // lines drawn last frame, to rewind
}

// NewDashboard wires a dashboard over the swarm's collectors.
func NewDashboard(w io.Writer, stats *Stats, ts *Timeseries) *Dashboard {
	return &Dashboard{w: w, stats: stats, ts: ts}
}

// sparkRunes are eighth-block characters, lowest to highest.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values scaled into the block-rune range.
func sparkline(vals []float64, width int) string {
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	var max float64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if max > 0 {
			i = int(v / max * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

// Render draws one frame from the current stats and series. cur is the most
// recent interval sample.
func (d *Dashboard) Render(cur SeriesPoint) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lines > 0 {
		fmt.Fprintf(d.w, "\x1b[%dA", d.lines) // rewind to frame top
	}
	snap := d.stats.Snapshot()
	pts := d.ts.Points()
	qps := make([]float64, len(pts))
	for i, p := range pts {
		qps[i] = p.AchievedQPS
	}

	lines := 0
	put := func(format string, args ...any) {
		fmt.Fprintf(d.w, "\x1b[2K"+format+"\n", args...) // clear line, write
		lines++
	}
	put("swarm  target %.0f qps  achieved %.0f qps  p50 %.2fms  p99 %.2fms  errs %d",
		cur.TargetQPS, cur.AchievedQPS, cur.P50MS, cur.P99MS, cur.Errors)
	put("  qps %s", sparkline(qps, 60))
	put("  %-8s %10s %8s %10s %10s", "endpoint", "requests", "errors", "p50", "p99")
	for _, ep := range Endpoints() {
		e := snap.Endpoints[ep]
		if e.OK+e.Errors == 0 {
			continue
		}
		put("  %-8s %10d %8d %10s %10s", ep, e.OK+e.Errors, e.Errors,
			fmtDur(e.Hist.Quantile(0.50)), fmtDur(e.Hist.Quantile(0.99)))
	}
	d.lines = lines
}

// fmtDur prints sub-second durations compactly (µs under 1ms, ms otherwise).
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
