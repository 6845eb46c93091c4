package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram with Prometheus bucket
// semantics: an observation v lands in the first bucket whose upper
// bound satisfies v <= le; values above the last bound land in the
// implicit +Inf bucket. Counts and the running sum are atomics, so
// concurrent Observe calls are safe; totals are order-independent and
// therefore deterministic for a deterministic set of observations (the
// float64 sum is accumulated by CAS, so its low bits may depend on
// observation order — dataset bytes never consume it).
//
// A nil *Histogram is a no-op.
type Histogram struct {
	name    string
	labels  string
	bounds  []float64 // ascending upper bounds, +Inf implicit
	counts  []atomic.Int64
	total   atomic.Int64
	sumBits atomic.Uint64
	// exemplars[i] holds the most recent ExemplarSource observed into
	// bucket i, or a nil-valued atomic before the first one.
	exemplars []atomic.Value
}

// ExemplarSource is a reference an observation can attach to the bucket
// it lands in — typically the request trace whose latency was observed,
// so an operator can jump from a latency bucket straight to the exact
// request that landed there. Storing the source is a single atomic
// pointer write (no allocation on the hot path); the hex ID and value
// are only materialized at exposition time.
//
// Contract: ExemplarValue must return the value that was observed, and
// every source observed into one histogram must share one concrete type
// (atomic.Value requires it; in practice this is always *trace.Span).
type ExemplarSource interface {
	// ExemplarTraceID returns the hex trace ID the exemplar points at.
	ExemplarTraceID() string
	// ExemplarValue returns the observed value the exemplar represents.
	ExemplarValue() float64
}

func newHistogram(name, labels string, bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	return &Histogram{
		name:      name,
		labels:    labels,
		bounds:    bs,
		counts:    make([]atomic.Int64, len(bs)+1),
		exemplars: make([]atomic.Value, len(bs)+1),
	}
}

// bucketOf returns the index of the first bucket whose upper bound
// admits v; len(bounds) addresses the implicit +Inf bucket.
func (h *Histogram) bucketOf(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.observe(h.bucketOf(v), v)
}

func (h *Histogram) observe(bucket int, v float64) {
	h.counts[bucket].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		val := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(val)) {
			return
		}
	}
}

// ObserveExemplar records one value and attaches ex as the bucket's
// exemplar (last writer wins). A nil ex is equivalent to Observe; a nil
// receiver is a no-op.
func (h *Histogram) ObserveExemplar(v float64, ex ExemplarSource) {
	if h == nil {
		return
	}
	i := h.bucketOf(v)
	h.observe(i, v)
	if ex != nil {
		h.exemplars[i].Store(ex)
	}
}

// BucketExemplar returns the current exemplar of bucket i, or nil.
func (h *Histogram) BucketExemplar(i int) ExemplarSource {
	if h == nil || i < 0 || i >= len(h.exemplars) {
		return nil
	}
	ex, _ := h.exemplars[i].Load().(ExemplarSource)
	return ex
}

// Count returns the number of observations (0 for a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of all observed values (0 for a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// BucketCount returns the non-cumulative count of bucket i, where
// i == len(bounds) addresses the +Inf bucket.
func (h *Histogram) BucketCount(i int) int64 {
	if h == nil || i < 0 || i >= len(h.counts) {
		return 0
	}
	return h.counts[i].Load()
}

// LatencyBuckets returns the preset bucket bounds for wall-clock
// latencies, in seconds: 100 µs to 30 s, roughly logarithmic.
func LatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
	}
}

// KmErrorBuckets returns the preset bucket bounds for geolocation-error
// style distances, in kilometres. The paper's thresholds (100 km
// per-peer, 80 km per-AS P90, the 40 km kernel bandwidth) sit on bucket
// boundaries so threshold sensitivity reads directly off the histogram.
func KmErrorBuckets() []float64 {
	return []float64{1, 2, 5, 10, 20, 40, 60, 80, 100, 150, 200, 500, 1000}
}
