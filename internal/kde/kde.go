// Package kde implements the bivariate Gaussian kernel density estimation
// at the heart of the paper (§3): given the projected locations of an
// eyeball AS's users, it estimates a smooth user-density surface whose
// peaks are candidate PoP locations and whose upper level set is the AS's
// geo-footprint.
//
// The estimator bins samples onto a regular km-space grid and convolves
// with a separable, truncated Gaussian — O(W·H·k) independent of the
// sample count, with binning error bounded by half a cell (cell defaults
// to bandwidth/4, far below the zip-code resolution of the input data).
package kde

import (
	"context"
	"fmt"
	"math"
	"time"

	"eyeballas/internal/geo"
	"eyeballas/internal/grid"
	"eyeballas/internal/obs"
	"eyeballas/internal/parallel"
	"eyeballas/internal/trace"
)

// Options configure an estimation run.
type Options struct {
	// BandwidthKm is the Gaussian kernel's standard deviation in km. The
	// paper's default for city-level resolution is 40 km (§3.1).
	BandwidthKm float64
	// CellKm is the grid resolution; 0 means BandwidthKm/4.
	CellKm float64
	// TruncSigma truncates the kernel at this many standard deviations;
	// 0 means 4 (mass error < 1e-4).
	TruncSigma float64
	// PadKm pads the grid beyond the sample bounding box; 0 means
	// TruncSigma·BandwidthKm so no kernel mass falls off the grid.
	PadKm float64
	// MaxCells caps W·H to bound memory; 0 means 16M cells. Estimate
	// returns an error if the domain would exceed the cap (callers choose
	// a coarser cell or larger bandwidth).
	MaxCells int
	// Workers bounds the goroutines used for the separable convolution;
	// 0 means GOMAXPROCS, 1 forces a serial pass. The surface is
	// byte-identical for every setting: the grid is decomposed into
	// fixed row/column blocks whose per-cell arithmetic never depends on
	// the worker count.
	Workers int
	// Obs receives estimation metrics (grid-cell gauge, estimate/sample
	// counters, latency histogram); nil disables them. Stage spans come
	// from the trace carried by Estimate's context, not from here. The
	// surface is bit-identical either way — only timing observations
	// vary.
	Obs *obs.Registry
}

// DefaultOptions returns the paper's §3.1 configuration: 40 km bandwidth,
// 10 km grid cells.
func DefaultOptions() Options {
	return Options{BandwidthKm: 40}
}

func (o Options) withDefaults() (Options, error) {
	if o.BandwidthKm <= 0 {
		return o, fmt.Errorf("kde: bandwidth must be positive, got %v", o.BandwidthKm)
	}
	if o.CellKm <= 0 {
		o.CellKm = o.BandwidthKm / 4
	}
	if o.TruncSigma <= 0 {
		o.TruncSigma = 4
	}
	if o.PadKm <= 0 {
		o.PadKm = o.TruncSigma * o.BandwidthKm
	}
	if o.MaxCells <= 0 {
		o.MaxCells = 16 << 20
	}
	return o, nil
}

// Estimate computes the density surface for the given samples. The
// resulting grid integrates to ~1 (a probability density per km²);
// relative comparisons such as the paper's α·Dmax peak threshold are
// normalization-independent. It returns an error for an empty sample set,
// an invalid bandwidth, or a domain exceeding Options.MaxCells.
//
// Cancellation: ctx is observed at the convolution's block boundaries
// (the only expensive part); a cancelled estimate returns ctx.Err() and
// the partial surface is discarded. A nil ctx means context.Background().
func Estimate(ctx context.Context, samples []geo.XY, opts Options) (*grid.Grid, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("kde: no samples")
	}
	// The latency histogram needs a clock read; take it only when a
	// registry will observe it.
	var start time.Time
	if o.Obs != nil {
		start = time.Now()
	}
	// When the caller's context carries a trace (a served footprint
	// request, or a batch CLI's -trace run), open the estimate under it
	// so the trace reaches down to individual convolution blocks. span
	// is nil otherwise and every use below is a branch-only no-op.
	span := trace.FromContext(ctx).Child("kde.estimate")
	defer span.End()
	minX, minY := samples[0].X, samples[0].Y
	maxX, maxY := minX, minY
	for _, s := range samples[1:] {
		minX = math.Min(minX, s.X)
		maxX = math.Max(maxX, s.X)
		minY = math.Min(minY, s.Y)
		maxY = math.Max(maxY, s.Y)
	}
	minX -= o.PadKm
	minY -= o.PadKm
	maxX += o.PadKm
	maxY += o.PadKm
	w := int(math.Ceil((maxX-minX)/o.CellKm)) + 1
	h := int(math.Ceil((maxY-minY)/o.CellKm)) + 1
	if w*h > o.MaxCells {
		return nil, fmt.Errorf("kde: domain needs %d cells (cap %d); increase CellKm", w*h, o.MaxCells)
	}
	g := grid.New(minX, minY, o.CellKm, w, h)
	span.SetInt("samples", int64(len(samples)))
	span.SetInt("cells", int64(w*h))
	if o.Obs != nil {
		o.Obs.Counter("eyeball_kde_estimates_total").Inc()
		o.Obs.Counter("eyeball_kde_samples_total").Add(int64(len(samples)))
		o.Obs.Gauge("eyeball_kde_grid_cells").Set(float64(w * h))
	}

	// Bin samples.
	binSpan := span.Child("bin")
	for _, s := range samples {
		i, j, ok := g.CellOf(s)
		if !ok {
			// Padding guarantees containment up to floating-point edge
			// cases; clamp those.
			i = clamp(i, 0, w-1)
			j = clamp(j, 0, h-1)
		}
		g.Add(i, j, 1)
	}
	binSpan.End()

	if err := blurSeparable(ctx, g, o.BandwidthKm, o.TruncSigma, o.Workers, span); err != nil {
		return nil, err
	}

	// counts → density: divide by N·cell² so the surface integrates to 1.
	g.Scale(1 / (float64(len(samples)) * o.CellKm * o.CellKm))
	if o.Obs != nil {
		o.Obs.Histogram("eyeball_kde_estimate_seconds", obs.LatencyBuckets()).Observe(time.Since(start).Seconds())
	}
	return g, nil
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// blurSeparable convolves the grid in place with a truncated Gaussian,
// normalized to preserve total mass.
//
// Both passes fan out over the shared worker pool. Rows (and columns) are
// convolved independently into disjoint slices, and the block
// decomposition is a fixed function of the grid dimensions, so the result
// is byte-identical for every worker count — including workers == 1,
// which runs inline with zero synchronization. parent (nil when tracing
// is off) receives one child span per pass, each with one span per
// convolution block, keyed by the block's low index so the rendered
// trace is deterministic regardless of worker scheduling. A cancelled
// ctx stops the fan-out at a block boundary and surfaces ctx.Err(); the
// grid is then partially blurred and must be discarded by the caller.
func blurSeparable(ctx context.Context, g *grid.Grid, bandwidthKm, truncSigma float64, workers int, parent *trace.Span) error {
	radius := int(math.Ceil(truncSigma * bandwidthKm / g.Cell))
	kernel := make([]float64, 2*radius+1)
	sum := 0.0
	for i := -radius; i <= radius; i++ {
		d := float64(i) * g.Cell
		kernel[i+radius] = math.Exp(-d * d / (2 * bandwidthKm * bandwidthKm))
		sum += kernel[i+radius]
	}
	for i := range kernel {
		kernel[i] /= sum
	}

	tmp := make([]float64, len(g.Data))
	// Horizontal pass: each row of g.Data convolves into the same row of
	// tmp; rows in a block are processed in order, blocks never overlap.
	hSpan := parent.Child("blur_horizontal")
	err := parallel.Blocks(ctx, workers, g.H, 0, func(lo, hi int) error {
		// Per-block trace spans are created and attributed by this
		// worker goroutine (the package's ownership contract); ChildSeq
		// keys them by lo so sibling order is schedule-independent.
		var bs *trace.Span
		if hSpan != nil {
			bs = hSpan.ChildSeq("rows", lo)
			bs.SetInt("lo", int64(lo))
			bs.SetInt("hi", int64(hi))
		}
		for j := lo; j < hi; j++ {
			row := g.Data[j*g.W : (j+1)*g.W]
			out := tmp[j*g.W : (j+1)*g.W]
			convolveRow(out, row, kernel, radius)
		}
		bs.End()
		return nil
	})
	hSpan.End()
	if err != nil {
		return err
	}
	// Vertical pass: convolve columns of tmp back into g.Data. Each
	// block owns a contiguous span of columns and its own scratch
	// buffers; writes target disjoint strided cells.
	vSpan := parent.Child("blur_vertical")
	err = parallel.Blocks(ctx, workers, g.W, 0, func(lo, hi int) error {
		var bs *trace.Span
		if vSpan != nil {
			bs = vSpan.ChildSeq("cols", lo)
			bs.SetInt("lo", int64(lo))
			bs.SetInt("hi", int64(hi))
		}
		col := make([]float64, g.H)
		outCol := make([]float64, g.H)
		for i := lo; i < hi; i++ {
			for j := 0; j < g.H; j++ {
				col[j] = tmp[j*g.W+i]
			}
			convolveRow(outCol, col, kernel, radius)
			for j := 0; j < g.H; j++ {
				g.Data[j*g.W+i] = outCol[j]
			}
		}
		bs.End()
		return nil
	})
	vSpan.End()
	return err
}

// convolveRow writes the 1-D convolution of src with kernel into dst.
// Mass falling outside the row is dropped (grids are padded so sources
// never sit that close to the edge).
func convolveRow(dst, src []float64, kernel []float64, radius int) {
	n := len(src)
	for i := range dst {
		dst[i] = 0
	}
	for i, v := range src {
		if v == 0 {
			continue
		}
		lo := i - radius
		kOff := 0
		if lo < 0 {
			kOff = -lo
			lo = 0
		}
		hi := i + radius
		if hi > n-1 {
			hi = n - 1
		}
		for t := lo; t <= hi; t++ {
			dst[t] += v * kernel[kOff]
			kOff++
		}
	}
}

// DensityAt evaluates the exact (non-binned, non-truncated) KDE at a
// point — the reference implementation the binned estimator is tested
// against, and the tool for spot evaluations in reports.
func DensityAt(samples []geo.XY, bandwidthKm float64, at geo.XY) float64 {
	if len(samples) == 0 || bandwidthKm <= 0 {
		return 0
	}
	h2 := bandwidthKm * bandwidthKm
	sum := 0.0
	for _, s := range samples {
		dx := s.X - at.X
		dy := s.Y - at.Y
		sum += math.Exp(-(dx*dx + dy*dy) / (2 * h2))
	}
	return sum / (float64(len(samples)) * 2 * math.Pi * h2)
}
