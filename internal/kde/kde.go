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

// truncSigma truncates the kernel at this many standard deviations
// (mass error < 1e-4). The grid is padded by truncSigma·BandwidthKm
// beyond the sample bounding box, so no kernel mass falls off it.
const truncSigma = 4

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
	return estimate(ctx, samples, nil, len(samples), opts)
}

// EstimateWeighted is Estimate over samples that share locations: point
// i stands for counts[i] ≥ 1 samples, so it is binned with weight
// counts[i] and the surface is normalized by the sum of the counts. The
// grid is bit for bit the one Estimate computes over the samples
// themselves, in any order: each cell sums whole numbers, exact below
// 2^53, and the sample bounds are a min and max over the same set of
// locations.
func EstimateWeighted(ctx context.Context, points []geo.XY, counts []uint32, opts Options) (*grid.Grid, error) {
	if len(counts) != len(points) {
		return nil, fmt.Errorf("kde: %d counts for %d points", len(counts), len(points))
	}
	n := 0
	for _, c := range counts {
		n += int(c)
	}
	return estimate(ctx, points, counts, n, opts)
}

// estimate bins points (with weight 1 when counts is nil) and blurs
// them into a surface normalized by n, the number of samples they stand
// for.
func estimate(ctx context.Context, points []geo.XY, counts []uint32, n int, opts Options) (*grid.Grid, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if n == 0 {
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
	minX, minY := points[0].X, points[0].Y
	maxX, maxY := minX, minY
	for _, s := range points[1:] {
		minX = math.Min(minX, s.X)
		maxX = math.Max(maxX, s.X)
		minY = math.Min(minY, s.Y)
		maxY = math.Max(maxY, s.Y)
	}
	pad := truncSigma * o.BandwidthKm
	minX -= pad
	minY -= pad
	maxX += pad
	maxY += pad
	// Size the domain in floating point: a cell small enough to overflow
	// an int, or one that underflowed to 0, must fail the cap check
	// rather than reach the conversion.
	fw := math.Ceil((maxX-minX)/o.CellKm) + 1
	fh := math.Ceil((maxY-minY)/o.CellKm) + 1
	if cells := fw * fh; !(o.CellKm > 0) || !(cells <= float64(o.MaxCells)) {
		if !(o.CellKm > 0) || math.IsNaN(cells) {
			cells = math.Inf(1)
		}
		// Counts a float holds exactly print in full, as the int product
		// did; larger ones in short scientific form.
		need := fmt.Sprintf("%.0f", cells)
		if cells >= 1<<53 {
			need = fmt.Sprintf("%.3g", cells)
		}
		return nil, fmt.Errorf("kde: domain needs %s cells (cap %d); increase CellKm", need, o.MaxCells)
	}
	w, h := int(fw), int(fh)
	g := grid.New(minX, minY, o.CellKm, w, h)
	span.SetInt("samples", int64(n))
	span.SetInt("points", int64(len(points)))
	span.SetInt("cells", int64(w*h))
	if o.Obs != nil {
		o.Obs.Counter("eyeball_kde_estimates_total").Inc()
		o.Obs.Counter("eyeball_kde_samples_total").Add(int64(n))
		o.Obs.Gauge("eyeball_kde_grid_cells").Set(float64(w * h))
	}

	// Bin points.
	binSpan := span.Child("bin")
	for k, s := range points {
		i, j, ok := g.CellOf(s)
		if !ok {
			// Padding guarantees containment up to floating-point edge
			// cases; clamp those.
			i = clamp(i, 0, w-1)
			j = clamp(j, 0, h-1)
		}
		wt := 1.0
		if counts != nil {
			wt = float64(counts[k])
		}
		g.Add(i, j, wt)
	}
	binSpan.End()

	// counts → density: the blur divides by N·cell² as it writes, so the
	// surface integrates to 1.
	scale := 1 / (float64(n) * o.CellKm * o.CellKm)
	if err := blurSeparable(ctx, g, o.BandwidthKm, scale, o.Workers, span); err != nil {
		return nil, err
	}
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

// blurBlockCells is the grid area one convolution block covers: enough
// work to amortize a block's scratch and span, while a continental-scale
// grid still splits into dozens of blocks for the pool.
const blurBlockCells = 1 << 15

// blurBlock returns the block size for a pass over n lines (rows or
// columns) of the given length: ceil(n·length/blurBlockCells) blocks of
// near-equal size. It depends on the grid's dimensions alone.
func blurBlock(n, length int) int {
	blocks := (n*length + blurBlockCells - 1) / blurBlockCells
	return (n + blocks - 1) / blocks
}

// blurSeparable convolves the grid in place with a truncated Gaussian,
// normalized to preserve total mass, and multiplies every cell by scale
// as the vertical pass writes it. It needs no second grid: the
// horizontal pass convolves each row from one row of scratch, and the
// vertical pass is an ascending gather that keeps, per block, only the
// source rows it has already overwritten (see gatherColumns).
//
// Both passes fan out over the shared worker pool in blocks whose
// boundaries are a fixed function of the grid dimensions, and every
// output cell sums its sources in ascending order wherever its block
// ends, so the result is byte-identical for every worker count —
// including workers == 1, which runs inline with zero synchronization.
// parent (nil when tracing is off) receives one child span per pass,
// each with one span per convolution block, keyed by the block's low
// index so the rendered trace is deterministic regardless of worker
// scheduling. A cancelled ctx stops the fan-out at a block boundary and
// surfaces ctx.Err(); the grid is then partially blurred and must be
// discarded by the caller.
func blurSeparable(ctx context.Context, g *grid.Grid, bandwidthKm, scale float64, workers int, parent *trace.Span) error {
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

	// Horizontal pass: each row convolves from a copy of itself; rows in
	// a block are processed in order, blocks never overlap.
	hSpan := parent.Child("blur_horizontal")
	err := parallel.Blocks(ctx, workers, g.H, blurBlock(g.H, g.W), func(lo, hi int) error {
		// Per-block trace spans are created and attributed by this
		// worker goroutine (the package's ownership contract); ChildSeq
		// keys them by lo so sibling order is schedule-independent.
		var bs *trace.Span
		if hSpan != nil {
			bs = hSpan.ChildSeq("rows", lo)
			bs.SetInt("lo", int64(lo))
			bs.SetInt("hi", int64(hi))
		}
		src := make([]float64, g.W)
		for j := lo; j < hi; j++ {
			row := g.Data[j*g.W : (j+1)*g.W]
			copy(src, row)
			convolveRow(row, src, kernel, radius)
		}
		bs.End()
		return nil
	})
	hSpan.End()
	if err != nil {
		return err
	}
	// Vertical pass: each block owns a contiguous span of columns and
	// its own ring; writes target disjoint cells.
	vSpan := parent.Child("blur_vertical")
	err = parallel.Blocks(ctx, workers, g.W, blurBlock(g.W, g.H), func(lo, hi int) error {
		var bs *trace.Span
		if vSpan != nil {
			bs = vSpan.ChildSeq("cols", lo)
			bs.SetInt("lo", int64(lo))
			bs.SetInt("hi", int64(hi))
		}
		gatherColumns(g, lo, hi, kernel, radius, scale)
		bs.End()
		return nil
	})
	vSpan.End()
	return err
}

// gatherColumns convolves columns [lo, hi) of g in place along y and
// writes each result times scale. Output row j is the sum over source
// rows s = j-radius … j+radius, ascending, of row s times
// kernel[j-s+radius] — the order in which convolveRow's scatter adds
// them — so each cell gets bit for bit what convolving its column and
// then multiplying it by scale would give. Rows are produced in ascending
// order: sources at or below j are still in g, and the radius rows above
// it that were already overwritten are kept, unscaled, in a ring.
//
// Each source row contributes only over its nonzero extent within the
// block, as convolveRow skips zero cells; an output row is written only
// over the union of its sources' extents. Neither can change a bit: a sum
// starts at +0, can never become −0, and adding ±0 to anything else
// returns it; outside the union the row was zero and stays zero (the
// horizontal pass leaves no −0), which is +0 times any finite scale.
func gatherColumns(g *grid.Grid, lo, hi int, kernel []float64, radius int, scale float64) {
	w := hi - lo
	slots := min(radius, g.H)
	buf := make([]float64, (slots+1)*w)
	acc, ring := buf[:w], buf[w:]
	// ext[j] is row j's nonzero extent [first, end) in block columns;
	// first == end for a row that is zero across the block.
	ext := make([][2]int, g.H)
	for j := range ext {
		row := g.Data[j*g.W+lo : j*g.W+hi]
		first, end := 0, 0
		for x, v := range row {
			if v != 0 {
				if first == end {
					first = x
				}
				end = x + 1
			}
		}
		ext[j] = [2]int{first, end}
	}
	for j := 0; j < g.H; j++ {
		s0, s1 := max(0, j-radius), min(g.H-1, j+radius)
		ulo, uhi := w, 0
		for s := s0; s <= s1; s++ {
			if e := ext[s]; e[0] < e[1] {
				ulo, uhi = min(ulo, e[0]), max(uhi, e[1])
			}
		}
		if ulo >= uhi {
			continue // every source is zero, and so is row j
		}
		clear(acc[ulo:uhi])
		for s := s0; s <= s1; s++ {
			e := ext[s]
			if e[0] == e[1] {
				continue
			}
			src := g.Data[s*g.W+lo+e[0] : s*g.W+lo+e[1]]
			if s < j {
				src = ring[s%slots*w+e[0] : s%slots*w+e[1]]
			}
			k := kernel[j-s+radius]
			a := acc[e[0]:e[1]]
			src = src[:len(a)]
			for x, v := range src {
				a[x] += v * k
			}
		}
		row := g.Data[j*g.W+lo : j*g.W+hi]
		if e := ext[j]; e[0] < e[1] && slots > 0 {
			copy(ring[j%slots*w+e[0]:], row[e[0]:e[1]])
		}
		out := row[ulo:uhi]
		for x, v := range acc[ulo:uhi][:len(out)] {
			out[x] = v * scale
		}
	}
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
