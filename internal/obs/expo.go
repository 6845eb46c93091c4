package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time copy of everything in a registry, with
// fully deterministic ordering: metric series sorted by name then
// rendered labels, funnels and their stages in declaration order. Both
// exposition writers consume it.
type Snapshot struct {
	Counters   []SeriesInt
	Gauges     []SeriesFloat
	Histograms []HistSeries
	Funnels    []FunnelSnapshot
}

// SeriesInt is one integer-valued metric series.
type SeriesInt struct {
	Name   string
	Labels string // rendered {k="v",...} or ""
	Value  int64
}

// SeriesFloat is one float-valued metric series.
type SeriesFloat struct {
	Name   string
	Labels string
	Value  float64
}

// HistSeries is one histogram series.
type HistSeries struct {
	Name   string
	Labels string
	Bounds []float64 // ascending upper bounds; +Inf implicit
	Counts []int64   // len(Bounds)+1, non-cumulative; last is +Inf
	Sum    float64
	Total  int64
	// Exemplars holds one entry per bucket (len(Counts)), nil where the
	// bucket has never carried an exemplar.
	Exemplars []*ExemplarSnapshot
}

// ExemplarSnapshot is the materialized form of a bucket's
// ExemplarSource at snapshot time.
type ExemplarSnapshot struct {
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

// FunnelSnapshot mirrors one funnel.
type FunnelSnapshot struct {
	Name   string          `json:"-"`
	Stages []StageSnapshot `json:"stages"`
}

// StageSnapshot mirrors one funnel stage. Drops is keyed by reason
// (encoding/json sorts map keys, keeping the output deterministic).
type StageSnapshot struct {
	Name  string           `json:"name"`
	In    int64            `json:"in"`
	Out   int64            `json:"out"`
	Drops map[string]int64 `json:"drops,omitempty"`
}

// Snapshot copies the registry's current state. Returns the zero
// Snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	fnlOrder := make([]string, len(r.fnlOrder))
	copy(fnlOrder, r.fnlOrder)
	funnels := make(map[string]*Funnel, len(r.funnels))
	for k, v := range r.funnels {
		funnels[k] = v
	}
	r.mu.Unlock()

	for _, c := range counters {
		snap.Counters = append(snap.Counters, SeriesInt{Name: c.name, Labels: c.labels, Value: c.Value()})
	}
	sort.Slice(snap.Counters, func(i, j int) bool {
		a, b := snap.Counters[i], snap.Counters[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Labels < b.Labels
	})
	for _, g := range gauges {
		snap.Gauges = append(snap.Gauges, SeriesFloat{Name: g.name, Labels: g.labels, Value: g.Value()})
	}
	sort.Slice(snap.Gauges, func(i, j int) bool {
		a, b := snap.Gauges[i], snap.Gauges[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Labels < b.Labels
	})
	for _, h := range hists {
		hs := HistSeries{Name: h.name, Labels: h.labels, Sum: h.Sum(), Total: h.Count()}
		hs.Bounds = append(hs.Bounds, h.bounds...)
		hasExemplar := false
		for i := range h.counts {
			hs.Counts = append(hs.Counts, h.counts[i].Load())
			var es *ExemplarSnapshot
			if ex := h.BucketExemplar(i); ex != nil {
				es = &ExemplarSnapshot{TraceID: ex.ExemplarTraceID(), Value: ex.ExemplarValue()}
				hasExemplar = true
			}
			hs.Exemplars = append(hs.Exemplars, es)
		}
		if !hasExemplar {
			hs.Exemplars = nil
		}
		snap.Histograms = append(snap.Histograms, hs)
	}
	sort.Slice(snap.Histograms, func(i, j int) bool {
		a, b := snap.Histograms[i], snap.Histograms[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Labels < b.Labels
	})
	for _, name := range fnlOrder {
		f := funnels[name]
		fs := FunnelSnapshot{Name: name}
		for _, st := range f.Stages() {
			ss := StageSnapshot{Name: st.Name(), In: st.InCount(), Out: st.OutCount()}
			reasons := st.reasonNames()
			if len(reasons) > 0 {
				ss.Drops = make(map[string]int64, len(reasons))
				for _, reason := range reasons {
					ss.Drops[reason] = st.DropCount(reason)
				}
			}
			fs.Stages = append(fs.Stages, ss)
		}
		snap.Funnels = append(snap.Funnels, fs)
	}
	return snap
}

// formatFloat renders a float the way Prometheus text exposition does.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format (version 0.0.4): counters, gauges, histograms with cumulative
// le buckets, and the funnels as two synthetic counter families
// (eyeball_funnel_peers_total{funnel,stage,dir} and
// eyeball_funnel_drops_total{funnel,stage,reason}).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// WritePrometheus renders the snapshot; see Registry.WritePrometheus.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder

	writeFamilyHeader := func(name, kind string, lastFamily *string) {
		if *lastFamily == name {
			return
		}
		*lastFamily = name
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, kind)
	}

	lastFam := ""
	for _, c := range s.Counters {
		writeFamilyHeader(c.Name, "counter", &lastFam)
		fmt.Fprintf(&b, "%s%s %d\n", c.Name, c.Labels, c.Value)
	}
	lastFam = ""
	for _, g := range s.Gauges {
		writeFamilyHeader(g.Name, "gauge", &lastFam)
		fmt.Fprintf(&b, "%s%s %s\n", g.Name, g.Labels, formatFloat(g.Value))
	}
	lastFam = ""
	for _, h := range s.Histograms {
		writeFamilyHeader(h.Name, "histogram", &lastFam)
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(&b, "%s_bucket%s %d%s\n", h.Name, mergeLE(h.Labels, formatFloat(bound)), cum, h.exemplarSuffix(i))
		}
		cum += h.Counts[len(h.Counts)-1]
		fmt.Fprintf(&b, "%s_bucket%s %d%s\n", h.Name, mergeLE(h.Labels, "+Inf"), cum, h.exemplarSuffix(len(h.Counts)-1))
		fmt.Fprintf(&b, "%s_sum%s %s\n", h.Name, h.Labels, formatFloat(h.Sum))
		fmt.Fprintf(&b, "%s_count%s %d\n", h.Name, h.Labels, h.Total)
	}

	if len(s.Funnels) > 0 {
		fmt.Fprintf(&b, "# TYPE eyeball_funnel_peers_total counter\n")
		for _, f := range s.Funnels {
			for _, st := range f.Stages {
				fmt.Fprintf(&b, "eyeball_funnel_peers_total{funnel=%q,stage=%q,dir=\"in\"} %d\n", f.Name, st.Name, st.In)
				fmt.Fprintf(&b, "eyeball_funnel_peers_total{funnel=%q,stage=%q,dir=\"out\"} %d\n", f.Name, st.Name, st.Out)
			}
		}
		fmt.Fprintf(&b, "# TYPE eyeball_funnel_drops_total counter\n")
		for _, f := range s.Funnels {
			for _, st := range f.Stages {
				reasons := make([]string, 0, len(st.Drops))
				for reason := range st.Drops {
					reasons = append(reasons, reason)
				}
				sort.Strings(reasons)
				for _, reason := range reasons {
					fmt.Fprintf(&b, "eyeball_funnel_drops_total{funnel=%q,stage=%q,reason=%q} %d\n",
						f.Name, st.Name, reason, st.Drops[reason])
				}
			}
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// exemplarSuffix renders bucket i's OpenMetrics exemplar —
// ` # {trace_id="…"} value` — or "" when the bucket has none, so
// expositions without exemplars are byte-identical to earlier releases.
func (h HistSeries) exemplarSuffix(i int) string {
	if i < 0 || i >= len(h.Exemplars) || h.Exemplars[i] == nil {
		return ""
	}
	ex := h.Exemplars[i]
	return fmt.Sprintf(" # {trace_id=%q} %s", ex.TraceID, formatFloat(ex.Value))
}

// mergeLE splices le="bound" into a rendered label set.
func mergeLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// jsonHistogram is the JSON shape of one histogram: bucket bounds stay
// in numeric order (an array, not a map, so "10" never sorts before
// "2").
type jsonHistogram struct {
	Buckets []jsonBucket `json:"buckets"`
	Sum     float64      `json:"sum"`
	Count   int64        `json:"count"`
}

type jsonBucket struct {
	LE       string            `json:"le"`
	Count    int64             `json:"count"` // non-cumulative
	Exemplar *ExemplarSnapshot `json:"exemplar,omitempty"`
}

type jsonSnapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]jsonHistogram  `json:"histograms,omitempty"`
	Funnels    map[string]FunnelSnapshot `json:"funnels,omitempty"`
}

// WriteJSON renders the snapshot as deterministic, indented JSON: map
// keys are sorted by encoding/json, histogram buckets stay in numeric
// order, funnel stages keep declaration order. No timestamp is emitted —
// snapshots of identical metric state are byte-identical (golden-file
// friendly); only latency-histogram contents vary run to run.
func (r *Registry) WriteJSON(w io.Writer) error { return r.Snapshot().WriteJSON(w) }

// WriteJSON renders the snapshot; see Registry.WriteJSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	var out jsonSnapshot
	if len(s.Counters) > 0 {
		out.Counters = make(map[string]int64, len(s.Counters))
		for _, c := range s.Counters {
			out.Counters[c.Name+c.Labels] = c.Value
		}
	}
	if len(s.Gauges) > 0 {
		out.Gauges = make(map[string]float64, len(s.Gauges))
		for _, g := range s.Gauges {
			out.Gauges[g.Name+g.Labels] = g.Value
		}
	}
	if len(s.Histograms) > 0 {
		out.Histograms = make(map[string]jsonHistogram, len(s.Histograms))
		for _, h := range s.Histograms {
			jh := jsonHistogram{Sum: h.Sum, Count: h.Total}
			exemplarAt := func(i int) *ExemplarSnapshot {
				if i < len(h.Exemplars) {
					return h.Exemplars[i]
				}
				return nil
			}
			for i, bound := range h.Bounds {
				jh.Buckets = append(jh.Buckets, jsonBucket{LE: formatFloat(bound), Count: h.Counts[i], Exemplar: exemplarAt(i)})
			}
			jh.Buckets = append(jh.Buckets, jsonBucket{LE: "+Inf", Count: h.Counts[len(h.Counts)-1], Exemplar: exemplarAt(len(h.Counts) - 1)})
			out.Histograms[h.Name+h.Labels] = jh
		}
	}
	if len(s.Funnels) > 0 {
		out.Funnels = make(map[string]FunnelSnapshot, len(s.Funnels))
		for _, f := range s.Funnels {
			out.Funnels[f.Name] = f
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
