package kde

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"eyeballas/internal/geo"
	"eyeballas/internal/obs"
	"eyeballas/internal/rng"
)

func benchSamples(n int) []geo.XY {
	src := rng.New(9000)
	out := make([]geo.XY, n)
	for i := range out {
		// Three clusters, like a small country-level AS.
		c := [3]geo.XY{{X: 0, Y: 0}, {X: 300, Y: 100}, {X: 150, Y: 400}}[src.Intn(3)]
		out[i] = geo.XY{X: c.X + src.Norm(0, 20), Y: c.Y + src.Norm(0, 20)}
	}
	return out
}

func BenchmarkEstimate(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		samples := benchSamples(n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Estimate(context.Background(), samples, Options{BandwidthKm: 40}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchWideSamples spreads clusters across a spanKm × spanKm domain, so
// the default 10 km cell yields a grid of roughly (spanKm/10)² cells — a
// continental-scale AS rather than the regional ones above.
func benchWideSamples(n int, spanKm float64) []geo.XY {
	src := rng.New(9001)
	centers := make([]geo.XY, 12)
	for i := range centers {
		centers[i] = geo.XY{X: src.Float64() * spanKm, Y: src.Float64() * spanKm}
	}
	out := make([]geo.XY, n)
	for i := range out {
		c := centers[src.Intn(len(centers))]
		out[i] = geo.XY{X: c.X + src.Norm(0, 25), Y: c.Y + src.Norm(0, 25)}
	}
	return out
}

// BenchmarkEstimateParallel measures the worker-pool scaling of a single
// large-grid Estimate: a ≥1M-cell surface (the §3.1 hot path at
// continental scale) at 1, 2, 4, and GOMAXPROCS workers. The output is
// byte-identical across all variants (see determinism_test.go); only the
// wall clock should move.
func BenchmarkEstimateParallel(b *testing.B) {
	samples := benchWideSamples(50000, 13000)
	g, err := Estimate(context.Background(), samples, Options{BandwidthKm: 40, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	if cells := g.W * g.H; cells < 1<<20 {
		b.Fatalf("grid has %d cells; need >= 1M for the scaling benchmark", cells)
	}
	workerCounts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(g.W*g.H), "cells")
			for i := 0; i < b.N; i++ {
				if _, err := Estimate(context.Background(), samples, Options{BandwidthKm: 40, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// servedPoints is the input a served render bins: the distinct
// locations of one large AS, as core.Prepare gives them, each with its
// sample count. n points sit in eight metros across a continent about
// 4,000 × 2,500 km, each point a zip-code location within about 30 km of
// its metro's centre, with counts skewed towards the first metros.
func servedPoints(n int) ([]geo.XY, []uint32) {
	src := rng.New(9002)
	metros := make([]geo.XY, 8)
	for i := range metros {
		metros[i] = geo.XY{X: src.Range(-2000, 2000), Y: src.Range(-1250, 1250)}
	}
	xy := make([]geo.XY, n)
	counts := make([]uint32, n)
	for i := range xy {
		m := i % len(metros)
		xy[i] = geo.XY{X: metros[m].X + src.Norm(0, 15), Y: metros[m].Y + src.Norm(0, 15)}
		counts[i] = uint32(1 + src.Intn(200/(m+1)))
	}
	return xy, counts
}

// BenchmarkEstimateServed times one weighted estimate of servedPoints'
// few hundred points at the paper's 40 km, serially, as the server
// renders a cold footprint: a sparse continental surface, where the
// passes that follow the support visit about half of the grid.
func BenchmarkEstimateServed(b *testing.B) {
	xy, counts := servedPoints(400)
	g, err := EstimateWeighted(context.Background(), xy, counts, Options{BandwidthKm: 40, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	support := 0
	for _, sp := range g.Spans {
		support += sp.Hi - sp.Lo
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateWeighted(context.Background(), xy, counts, Options{BandwidthKm: 40, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.W*g.H), "cells")
	b.ReportMetric(float64(support), "support_cells")
}

// BenchmarkEstimateObs runs the same estimate as BenchmarkEstimate/n10000
// with a live registry attached: the counter/gauge/histogram hooks fire
// on every call. The delta against the uninstrumented run is the kde-layer
// observability overhead (budget: ≤3%).
func BenchmarkEstimateObs(b *testing.B) {
	samples := benchSamples(10000)
	reg := obs.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Estimate(context.Background(), samples, Options{BandwidthKm: 40, Obs: reg}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateFineGrid(b *testing.B) {
	samples := benchSamples(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Estimate(context.Background(), samples, Options{BandwidthKm: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDensityAt(b *testing.B) {
	samples := benchSamples(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DensityAt(samples, 40, geo.XY{X: 10, Y: 10})
	}
}
