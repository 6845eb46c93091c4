package kde

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"eyeballas/internal/geo"
	"eyeballas/internal/rng"
)

func TestEstimateErrors(t *testing.T) {
	if _, err := Estimate(context.Background(), nil, Options{BandwidthKm: CityLevelBandwidthKm}); err == nil {
		t.Error("empty samples should error")
	}
	if _, err := Estimate(context.Background(), []geo.XY{{X: 0, Y: 0}}, Options{BandwidthKm: -1}); err == nil {
		t.Error("negative bandwidth should error")
	}
	big := []geo.XY{{X: 0, Y: 0}, {X: 1e6, Y: 1e6}}
	if _, err := Estimate(context.Background(), big, Options{BandwidthKm: 1}); !errors.Is(err, ErrGridTooLarge) {
		t.Errorf("oversized domain: err %v, want ErrGridTooLarge", err)
	}
}

// TestEstimateTinyBandwidthErrors: a bandwidth small enough that the
// cell count overflows an int (1e-300), or that the cell underflows to 0
// (5e-324, the smallest positive float), is an oversized domain — the
// same ErrGridTooLarge a merely too-fine bandwidth gets — and never a
// panic in grid.New.
func TestEstimateTinyBandwidthErrors(t *testing.T) {
	samples := []geo.XY{{X: 0, Y: 0}, {X: 300, Y: 200}}
	cases := []struct {
		bw   float64
		want string
	}{
		{0.001, "kde: grid too large: bandwidth 0.001 km needs 960066801122 cells (cap 16777216)"},
		{1e-150, "kde: grid too large: bandwidth 1e-150 km needs 9.6e+305 cells (cap 16777216)"},
		{1e-300, "kde: grid too large: bandwidth 1e-300 km needs +Inf cells (cap 16777216)"},
		{5e-324, "kde: grid too large: bandwidth 5e-324 km needs +Inf cells (cap 16777216)"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprint(tc.bw), func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("bw=%v panicked: %v", tc.bw, r)
				}
			}()
			g, err := Estimate(context.Background(), samples, Options{BandwidthKm: tc.bw})
			if !errors.Is(err, ErrGridTooLarge) || err.Error() != tc.want {
				t.Fatalf("bw=%v: got grid %v, err %v; want %q", tc.bw, g != nil, err, tc.want)
			}
		})
	}
}

// TestEstimateWeightedMatchesSamples: points binned with their counts
// give bit for bit the surface of the samples they stand for, listed in
// another order; a count list of the wrong length, or one that sums to
// no samples, is an error.
func TestEstimateWeightedMatchesSamples(t *testing.T) {
	src := rng.New(17)
	points := make([]geo.XY, 60)
	counts := make([]uint32, len(points))
	var samples []geo.XY
	for i := range points {
		points[i] = geo.XY{X: src.Range(-300, 300), Y: src.Range(-200, 200)}
		counts[i] = uint32(1 + src.Intn(20))
		for c := uint32(0); c < counts[i]; c++ {
			samples = append(samples, points[i])
		}
	}
	src.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	opts := Options{BandwidthKm: 40, Workers: 1}
	want, err := Estimate(context.Background(), samples, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EstimateWeighted(context.Background(), points, counts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != want.W || got.H != want.H || got.MinX != want.MinX || got.MinY != want.MinY {
		t.Fatalf("grid %dx%d at (%v,%v), per-sample %dx%d at (%v,%v)", got.W, got.H, got.MinX, got.MinY, want.W, want.H, want.MinX, want.MinY)
	}
	for k := range want.Data {
		if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
			t.Fatalf("cell %d = %.17g, per-sample %.17g", k, got.Data[k], want.Data[k])
		}
	}

	if _, err := EstimateWeighted(context.Background(), points, counts[1:], opts); err == nil || err.Error() != "kde: 59 counts for 60 points" {
		t.Errorf("short counts: err %v", err)
	}
	if _, err := EstimateWeighted(context.Background(), points[:1], []uint32{0}, opts); err == nil || err.Error() != "kde: no samples" {
		t.Errorf("zero counts: err %v", err)
	}
}

func TestEstimateIntegratesToOne(t *testing.T) {
	src := rng.New(5)
	samples := make([]geo.XY, 500)
	for i := range samples {
		samples[i] = geo.XY{X: src.Norm(0, 50), Y: src.Norm(0, 30)}
	}
	g, err := Estimate(context.Background(), samples, Options{BandwidthKm: 20})
	if err != nil {
		t.Fatal(err)
	}
	if integral := g.Integral(); math.Abs(integral-1) > 0.01 {
		t.Errorf("density integral = %v, want ~1", integral)
	}
	for _, v := range g.Data {
		if v < 0 {
			t.Fatal("negative density")
		}
	}
}

func TestEstimateSinglePointPeak(t *testing.T) {
	at := geo.XY{X: 37, Y: -12}
	g, err := Estimate(context.Background(), []geo.XY{at}, Options{BandwidthKm: 10})
	if err != nil {
		t.Fatal(err)
	}
	_, i, j := g.Max()
	c := g.Center(i, j)
	if c.DistanceKm(at) > g.Cell*1.5 {
		t.Errorf("peak at %v, want near %v", c, at)
	}
	peaks := g.Peaks(0)
	if len(peaks) != 1 {
		t.Errorf("single point produced %d peaks", len(peaks))
	}
}

func TestEstimateTwoWellSeparatedClusters(t *testing.T) {
	src := rng.New(6)
	var samples []geo.XY
	for i := 0; i < 400; i++ {
		samples = append(samples, geo.XY{X: src.Norm(0, 8), Y: src.Norm(0, 8)})
	}
	for i := 0; i < 200; i++ {
		samples = append(samples, geo.XY{X: src.Norm(300, 8), Y: src.Norm(0, 8)})
	}
	g, err := Estimate(context.Background(), samples, Options{BandwidthKm: 20})
	if err != nil {
		t.Fatal(err)
	}
	max, _, _ := g.Max()
	peaks := g.Peaks(max * 0.01)
	if len(peaks) != 2 {
		t.Fatalf("got %d peaks, want 2: %+v", len(peaks), peaks)
	}
	// Higher peak belongs to the larger cluster (near x=0).
	if math.Abs(peaks[0].XY.X) > 30 {
		t.Errorf("dominant peak at %v, want near x=0", peaks[0].XY)
	}
	if math.Abs(peaks[1].XY.X-300) > 30 {
		t.Errorf("secondary peak at %v, want near x=300", peaks[1].XY)
	}
	if peaks[0].Value <= peaks[1].Value {
		t.Error("larger cluster should have higher density")
	}
}

// TestEstimateBandwidthMerging reproduces the paper's Figure 1 phenomenon
// in miniature: two clusters 100 km apart are distinct at a small
// bandwidth and merge into one peak at a large bandwidth.
func TestEstimateBandwidthMerging(t *testing.T) {
	src := rng.New(7)
	var samples []geo.XY
	for i := 0; i < 300; i++ {
		samples = append(samples, geo.XY{X: src.Norm(0, 10), Y: src.Norm(0, 10)})
		samples = append(samples, geo.XY{X: src.Norm(100, 10), Y: src.Norm(0, 10)})
	}
	count := func(bw float64) int {
		g, err := Estimate(context.Background(), samples, Options{BandwidthKm: bw})
		if err != nil {
			t.Fatal(err)
		}
		max, _, _ := g.Max()
		return len(g.Peaks(max * 0.01))
	}
	if n := count(15); n != 2 {
		t.Errorf("bw=15: %d peaks, want 2", n)
	}
	if n := count(80); n != 1 {
		t.Errorf("bw=80: %d peaks, want 1", n)
	}
}

// TestEstimateMatchesDirect cross-checks the binned estimator against the
// exact per-sample evaluation at the mode.
func TestEstimateMatchesDirect(t *testing.T) {
	src := rng.New(8)
	samples := make([]geo.XY, 300)
	for i := range samples {
		samples[i] = geo.XY{X: src.Norm(0, 25), Y: src.Norm(10, 25)}
	}
	g, err := Estimate(context.Background(), samples, Options{BandwidthKm: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []geo.XY{{X: 0, Y: 10}, {X: 20, Y: 0}, {X: -30, Y: 30}} {
		i, j, ok := g.CellOf(probe)
		if !ok {
			t.Fatalf("probe %v outside grid", probe)
		}
		binned := g.At(i, j)
		exact := DensityAt(samples, 20, g.Center(i, j))
		if exact == 0 {
			continue
		}
		if rel := math.Abs(binned-exact) / exact; rel > 0.05 {
			t.Errorf("probe %v: binned %v vs exact %v (rel %.3f)", probe, binned, exact, rel)
		}
	}
}

// TestEstimateTranslationEquivariance: shifting all samples shifts the
// density surface without changing its shape.
func TestEstimateTranslationEquivariance(t *testing.T) {
	src := rng.New(9)
	samples := make([]geo.XY, 200)
	for i := range samples {
		samples[i] = geo.XY{X: src.Norm(0, 15), Y: src.Norm(0, 15)}
	}
	shifted := make([]geo.XY, len(samples))
	const dx, dy = 500, -200
	for i, s := range samples {
		shifted[i] = geo.XY{X: s.X + dx, Y: s.Y + dy}
	}
	opts := Options{BandwidthKm: 20}
	g1, err := Estimate(context.Background(), samples, opts)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Estimate(context.Background(), shifted, opts)
	if err != nil {
		t.Fatal(err)
	}
	m1, i1, j1 := g1.Max()
	m2, i2, j2 := g2.Max()
	// Binned estimation is translation-equivariant up to re-binning of
	// samples that sit on cell boundaries: allow a small relative slack.
	if math.Abs(m1-m2)/m1 > 5e-3 {
		t.Errorf("max changed under translation: %v vs %v", m1, m2)
	}
	c1 := g1.Center(i1, j1)
	c2 := g2.Center(i2, j2)
	if math.Abs(c2.X-c1.X-dx) > g1.Cell || math.Abs(c2.Y-c1.Y-dy) > g1.Cell {
		t.Errorf("mode moved from %v to %v, want shift (%v,%v)", c1, c2, dx, dy)
	}
}

func TestEstimateMassConservedUnderBandwidth(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 20 + int(seed%50)
		samples := make([]geo.XY, n)
		for i := range samples {
			samples[i] = geo.XY{X: src.Range(-100, 100), Y: src.Range(-100, 100)}
		}
		for _, bw := range []float64{10, 40, 80} {
			g, err := Estimate(context.Background(), samples, Options{BandwidthKm: bw})
			if err != nil {
				return false
			}
			if math.Abs(g.Integral()-1) > 0.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDensityAtProperties(t *testing.T) {
	samples := []geo.XY{{X: 0, Y: 0}}
	peak := DensityAt(samples, 10, geo.XY{X: 0, Y: 0})
	want := 1 / (2 * math.Pi * 100)
	if math.Abs(peak-want) > 1e-12 {
		t.Errorf("peak density = %v, want %v", peak, want)
	}
	if DensityAt(samples, 10, geo.XY{X: 50, Y: 0}) >= peak {
		t.Error("density should decay with distance")
	}
	if DensityAt(nil, 10, geo.XY{}) != 0 || DensityAt(samples, 0, geo.XY{}) != 0 {
		t.Error("degenerate inputs should yield 0")
	}
}
