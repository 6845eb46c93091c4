// Package obs is the repository's zero-dependency observability layer:
// atomic counters and gauges, fixed-bucket histograms, and stage-by-stage
// funnel accounting, all collected in a Registry that snapshots to
// Prometheus text exposition format and deterministic JSON. Spans are
// not kept here: internal/trace is the one span API, and it renders
// through this package's TreeNode encoder (tree.go).
//
// Design constraints (carried over from the parallel worker pool and the
// compiled LPM engine, see DESIGN.md "Observability"):
//
//   - Instrumentation is a read-only side channel. Nothing in this
//     package influences dataset bytes: pipeline and KDE outputs are
//     bit-identical with metrics enabled or disabled, for every worker
//     count. Only *timing* observations (latency histograms) vary run
//     to run.
//
//   - A nil Registry is the disabled state and must cost near-zero on
//     hot paths. Every method on a nil *Registry, *Counter, *Gauge,
//     *Histogram, and *Stage is a safe no-op guarded by a single branch
//     and performs no allocation (verified by testing.AllocsPerRun).
//     Instrumented code therefore holds possibly-nil handles and calls
//     them unconditionally.
//
//   - Per-item counters on nanosecond-scale hot loops (the compiled
//     LPM's ~6 ns OriginOf) are never incremented per call. Callers
//     accumulate block-local deltas and flush one atomic add per work
//     block (shard-aggregated counting), or derive counts from
//     aggregation state after the loop.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is a no-op.
type Counter struct {
	name   string
	labels string // rendered {k="v",...} or ""
	v      atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 gauge. A nil *Gauge is a no-op.
type Gauge struct {
	name   string
	labels string
	bits   atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		val := math.Float64frombits(old) + d
		if g.bits.CompareAndSwap(old, math.Float64bits(val)) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value — a
// monotone high-watermark, safe under concurrent publishers (the
// streaming pipeline uses it for peak live-sample and dedup-set
// gauges). No-op on a nil receiver.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 for a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry collects every metric and funnel of one run. The zero
// value is not usable — construct with New. A nil *Registry disables all
// instrumentation: every method is a safe, allocation-free no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funnels  map[string]*Funnel
	fnlOrder []string
}

// New returns an empty, enabled registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funnels:  make(map[string]*Funnel),
	}
}

// seriesKey renders name plus sorted label pairs into the canonical
// series identity (and the Prometheus series syntax).
func seriesKey(name string, labels []string) (key, rendered string) {
	if len(labels) == 0 {
		return name, ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	rendered = b.String()
	return name + rendered, rendered
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Counter returns (registering on first use) the counter with the given
// name and optional label key/value pairs. Returns nil on a nil
// registry.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	key, rendered := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[key]; ok {
		return c
	}
	c := &Counter{name: name, labels: rendered}
	r.counters[key] = c
	return c
}

// Gauge returns (registering on first use) the gauge with the given name
// and optional label key/value pairs. Returns nil on a nil registry.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	key, rendered := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[key]; ok {
		return g
	}
	g := &Gauge{name: name, labels: rendered}
	r.gauges[key] = g
	return g
}

// Histogram returns (registering on first use) the fixed-bucket
// histogram with the given name, bucket upper bounds (ascending; +Inf is
// implicit), and optional label pairs. Returns nil on a nil registry.
// Bounds are fixed at first registration; later calls with the same name
// and labels return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	key, rendered := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[key]; ok {
		return h
	}
	h := newHistogram(name, rendered, bounds)
	r.hists[key] = h
	return h
}

// RegisterFunnel attaches a funnel to the registry for exposition,
// replacing any previously registered funnel with the same name (each
// pipeline run builds a fresh funnel; the registry exports the most
// recent one). No-op on a nil registry or nil funnel.
func (r *Registry) RegisterFunnel(f *Funnel) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.funnels[f.name]; !exists {
		r.fnlOrder = append(r.fnlOrder, f.name)
	}
	r.funnels[f.name] = f
}
