// Package obs is the repo's dependency-free observability layer: atomic
// counters, gauges, and one histogram type — the log-linear HDRHistogram,
// which records durations and plain values (meters, probabilities, counts)
// alike — registered in a Registry with hand-rolled Prometheus text
// exposition, a leveled structured logger (logfmt or JSON), and a lightweight
// Span helper for per-stage timings. Everything is stdlib-only and safe for
// concurrent use; the hot paths (Counter.Inc, HDRHistogram.Record, resolved
// Vec children) are a few atomic operations so instrumentation can sit inside
// the serving and training loops without measurable cost.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is anything the registry can expose in Prometheus text format.
type metric interface {
	expose(w *bufio.Writer)
}

// Registry holds a named set of metrics and renders them in registration
// order. The zero value is not usable; call NewRegistry. Default is the
// process-wide registry every package-level metric registers into.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// Default is the process-wide registry served at GET /v1/metrics.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// register adds m under name, panicking on duplicates — metric names are
// package-level constants, so a collision is a programming error.
func (r *Registry) register(name string, m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic("obs: duplicate metric " + name)
	}
	r.names[name] = true
	r.metrics = append(r.metrics, m)
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4). Values are read atomically per sample;
// the exposition as a whole is not a consistent snapshot, which Prometheus
// scrapes tolerate by design.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, m := range ms {
		m.expose(bw)
	}
	return bw.Flush()
}

// funcMetric adapts a callback into the registry's metric interface, for
// components that render their own exposition text (the cluster frontend
// re-exporting peer quality metrics, for example).
type funcMetric func(w io.Writer)

func (f funcMetric) expose(w *bufio.Writer) { f(w) }

// Exposer registers fn to append raw exposition text on every scrape. The
// callback owns its families end to end (HELP/TYPE lines included) and must
// not collide with names registered through the typed constructors — name is
// reserved in the registry to catch exactly that.
func (r *Registry) Exposer(name string, fn func(w io.Writer)) {
	r.register(name, funcMetric(fn))
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	name   string
	labels string // pre-rendered {k="v",...} or ""
	v      atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are a caller bug and are ignored.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct {
	name   string
	labels string
	bits   atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Counter registers and returns a new unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name}
	r.register(name, &singleMetric{name: name, help: help, typ: "counter", m: c})
	return c
}

// Gauge registers and returns a new unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name}
	r.register(name, &singleMetric{name: name, help: help, typ: "gauge", m: g})
	return g
}

// singleMetric is the exposition wrapper of one unlabelled metric.
type singleMetric struct {
	name, help, typ string
	m               any
}

func (s *singleMetric) expose(w *bufio.Writer) {
	writeHeader(w, s.name, s.help, s.typ)
	switch m := s.m.(type) {
	case *Counter:
		fmt.Fprintf(w, "%s %d\n", s.name, m.Value())
	case *Gauge:
		fmt.Fprintf(w, "%s %s\n", s.name, formatFloat(m.Value()))
	case *HDRHistogram:
		exposeHDR(w, m)
	}
}

func writeHeader(w *bufio.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, strings.NewReplacer("\\", `\\`, "\n", `\n`).Replace(help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// mergeLabels appends extra to a pre-rendered {..} label set.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}

// escapeLabel escapes a label value for exposition.
func escapeLabel(v string) string {
	return strings.NewReplacer("\\", `\\`, `"`, `\"`, "\n", `\n`).Replace(v)
}

// renderLabels renders {k1="v1",k2="v2"} for the given keys and values.
func renderLabels(keys, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// vec is the shared child bookkeeping of the labelled metric families. The
// child lookup takes an RWMutex read lock; hot paths should resolve children
// once (With) and hold on to them.
type vec struct {
	name, help, typ string
	keys            []string
	mu              sync.RWMutex
	children        map[string]metricChild
	order           []string
}

type metricChild struct {
	labels string
	m      any
}

func (v *vec) child(values []string, mk func(labels string) any) any {
	if len(values) != len(v.keys) {
		panic("obs: " + v.name + ": label value count mismatch")
	}
	key := strings.Join(values, "\x00")
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c.m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c.m
	}
	labels := renderLabels(v.keys, values)
	m := mk(labels)
	v.children[key] = metricChild{labels: labels, m: m}
	v.order = append(v.order, key)
	return m
}

func (v *vec) expose(w *bufio.Writer) {
	writeHeader(w, v.name, v.help, v.typ)
	v.mu.RLock()
	keys := make([]string, len(v.order))
	copy(keys, v.order)
	children := make([]metricChild, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.RUnlock()
	// Sort by rendered labels for a deterministic exposition.
	sort.Slice(children, func(i, j int) bool { return children[i].labels < children[j].labels })
	for _, c := range children {
		switch m := c.m.(type) {
		case *Counter:
			fmt.Fprintf(w, "%s%s %d\n", v.name, c.labels, m.Value())
		case *Gauge:
			fmt.Fprintf(w, "%s%s %s\n", v.name, c.labels, formatFloat(m.Value()))
		case *HDRHistogram:
			exposeHDR(w, m)
		}
	}
}

// CounterVec is a counter family with a fixed label-key set.
type CounterVec struct {
	v *vec
}

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	cv := &CounterVec{v: &vec{name: name, help: help, typ: "counter", keys: keys, children: make(map[string]metricChild)}}
	r.register(name, cv.v)
	return cv
}

// With returns (creating if needed) the child counter for the label values.
func (c *CounterVec) With(values ...string) *Counter {
	return c.v.child(values, func(labels string) any {
		return &Counter{name: c.v.name, labels: labels}
	}).(*Counter)
}

// GaugeVec is a gauge family with a fixed label-key set.
type GaugeVec struct {
	v *vec
}

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, keys ...string) *GaugeVec {
	gv := &GaugeVec{v: &vec{name: name, help: help, typ: "gauge", keys: keys, children: make(map[string]metricChild)}}
	r.register(name, gv.v)
	return gv
}

// With returns (creating if needed) the child gauge for the label values.
func (g *GaugeVec) With(values ...string) *Gauge {
	return g.v.child(values, func(labels string) any {
		return &Gauge{name: g.v.name, labels: labels}
	}).(*Gauge)
}
