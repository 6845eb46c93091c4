package obs

import "testing"

// The disabled-path benchmarks pin the "near-zero when off" guarantee:
// every nil-receiver call must be branch-only (sub-nanosecond, zero
// allocations). The enabled paths show the real cost callers pay when a
// registry is installed — a single atomic RMW for counters, one atomic
// plus a branch scan for histograms.

func BenchmarkCounterIncEnabled(b *testing.B) {
	c := New().Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	h := New().Histogram("bench_seconds", LatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.003)
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.003)
	}
}

func BenchmarkFunnelStageDisabled(b *testing.B) {
	var st *Stage
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.In(1)
		st.Drop("reason", 1)
		st.Out(1)
	}
}
