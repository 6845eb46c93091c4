package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single-element percentile = %v", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for p > 100")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if c.N() != 4 {
		t.Errorf("N = %d", c.N())
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		c := NewCDF(clean)
		prev := -1.0
		probes := append([]float64{}, clean...)
		sort.Float64s(probes)
		for _, x := range probes {
			p := c.At(x)
			if p < prev-1e-12 || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFQuantileInverse(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if got := c.Quantile(1); got != 10 {
		t.Errorf("Quantile(1) = %v", got)
	}
	if got := c.Quantile(0.5); got < 5 || got > 6 {
		t.Errorf("Quantile(0.5) = %v", got)
	}
	if got := c.Quantile(-0.5); got != 1 {
		t.Errorf("clamped Quantile(-0.5) = %v", got)
	}
	if !math.IsNaN(NewCDF(nil).Quantile(0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestCDFPoints(t *testing.T) {
	xs, ps := NewCDF([]float64{5, 1, 5, 2}).Points()
	wantX := []float64{1, 2, 5}
	wantP := []float64{0.25, 0.5, 1}
	if len(xs) != 3 {
		t.Fatalf("got %d points", len(xs))
	}
	for i := range xs {
		if xs[i] != wantX[i] || math.Abs(ps[i]-wantP[i]) > 1e-9 {
			t.Errorf("point %d = (%v,%v), want (%v,%v)", i, xs[i], ps[i], wantX[i], wantP[i])
		}
	}
}

func TestASCIIPlot(t *testing.T) {
	out := ASCIIPlot(40, 10, map[rune][][2]float64{
		'a': {{0, 0}, {50, 50}, {100, 100}},
		'b': {{0, 100}, {100, 0}},
	})
	if out == "" {
		t.Fatal("empty plot")
	}
	if !containsRune(out, 'a') || !containsRune(out, 'b') {
		t.Error("plot missing series marks")
	}
	if ASCIIPlot(2, 2, nil) != "" {
		t.Error("degenerate plot should be empty")
	}
}

func containsRune(s string, r rune) bool {
	for _, c := range s {
		if c == r {
			return true
		}
	}
	return false
}

func TestSpearmanPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 20, 30, 40, 50}
	if r := Spearman(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Errorf("monotone increasing r = %v, want 1", r)
	}
	rev := []float64{50, 40, 30, 20, 10}
	if r := Spearman(xs, rev); math.Abs(r+1) > 1e-12 {
		t.Errorf("monotone decreasing r = %v, want -1", r)
	}
}

func TestSpearmanRankBased(t *testing.T) {
	// Spearman sees monotone nonlinear relations as perfect.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	if r := Spearman(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Errorf("cubic relation r = %v, want 1", r)
	}
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 1, 2, 2}
	ys := []float64{3, 3, 7, 7}
	if r := Spearman(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Errorf("tied monotone r = %v, want 1", r)
	}
	flat := []float64{5, 5, 5, 5}
	if r := Spearman(xs, flat); r != 0 {
		t.Errorf("constant series r = %v, want 0", r)
	}
}

func TestSpearmanUncorrelated(t *testing.T) {
	xs := make([]float64, 2000)
	ys := make([]float64, 2000)
	state := uint64(12345)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53)
	}
	for i := range xs {
		xs[i] = next()
		ys[i] = next()
	}
	if r := Spearman(xs, ys); math.Abs(r) > 0.08 {
		t.Errorf("independent series r = %v, want ~0", r)
	}
}

func TestSpearmanEdge(t *testing.T) {
	if Spearman(nil, nil) != 0 || Spearman([]float64{1}, []float64{2}) != 0 {
		t.Error("degenerate Spearman not 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	Spearman([]float64{1, 2}, []float64{1})
}

// mustPanic runs fn and fails the test unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic (want one mentioning %q)", want)
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, want) {
			t.Fatalf("panic %v does not mention %q", r, want)
		}
	}()
	fn()
}

// TestNaNDetection: a NaN anywhere in a sample must crash Percentile and
// NewCDF loudly, naming the function and index, instead of silently
// poisoning the result (sort.Float64s places NaNs arbitrarily, so a
// quiet answer would be nondeterministic garbage).
func TestNaNDetection(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		xs   []float64
	}{
		{"leading", []float64{nan, 1, 2}},
		{"middle", []float64{1, nan, 2}},
		{"trailing", []float64{1, 2, nan}},
		{"only", []float64{nan}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mustPanic(t, "Percentile: NaN", func() { Percentile(tc.xs, 50) })
			mustPanic(t, "NewCDF: NaN", func() { NewCDF(tc.xs) })
		})
	}
}

// TestNaNDetectionCleanSamplesUnaffected: the guard must not change any
// answer for finite samples, including infinities (which order fine).
func TestNaNDetectionCleanSamplesUnaffected(t *testing.T) {
	xs := []float64{3, 1, 2, math.Inf(1), math.Inf(-1)}
	if got := Percentile(xs, 50); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if c := NewCDF(xs); c.N() != 5 || c.At(2) != 0.6 {
		t.Errorf("NewCDF changed on clean input: N %d, P(X<=2) %v", c.N(), c.At(2))
	}
	// Empty sample still returns NaN from Percentile, no panic.
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty-sample Percentile no longer NaN")
	}
}
