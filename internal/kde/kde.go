// Package kde implements the bivariate Gaussian kernel density estimation
// at the heart of the paper (§3): given the projected locations of an
// eyeball AS's users, it estimates a smooth user-density surface whose
// peaks are candidate PoP locations and whose upper level set is the AS's
// geo-footprint.
//
// The estimator bins samples onto a regular km-space grid and convolves
// with a separable, truncated Gaussian — O(W·H·k) independent of the
// sample count, with binning error bounded by half a cell (the cell is
// a quarter of the bandwidth, far below the zip-code resolution of the
// input data).
//
// The bandwidth is the caller's: the paper fixes it at 40 km for
// city-level resolution (§3.1, CityLevelBandwidthKm) and cites Botev et
// al. (2010) for data-driven selection only as an alternative it does
// not use.
package kde

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"eyeballas/internal/geo"
	"eyeballas/internal/grid"
	"eyeballas/internal/obs"
	"eyeballas/internal/parallel"
	"eyeballas/internal/trace"
)

// CityLevelBandwidthKm is the paper's fixed bandwidth: larger than the
// 30–35 km radius of a typical large city so a city produces one peak,
// small enough to separate cities (§3.1).
const CityLevelBandwidthKm = 40

// maxCells caps a grid's W·H to bound memory: 16 Mi cells, 128 MiB of
// float64s.
const maxCells = 16 << 20

// ErrGridTooLarge is the error Estimate wraps when the bandwidth is too
// small for the samples' extent: its grid, at a quarter of the bandwidth
// per cell, would exceed the cell cap. Only a larger bandwidth helps.
var ErrGridTooLarge = errors.New("kde: grid too large")

// Options configure an estimation run. The grid's cell is a quarter of
// the bandwidth.
type Options struct {
	// BandwidthKm is the Gaussian kernel's standard deviation in km. The
	// paper's default for city-level resolution is 40 km (§3.1).
	BandwidthKm float64
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

// Estimate computes the density surface for the given samples. The
// resulting grid integrates to ~1 (a probability density per km²);
// relative comparisons such as the paper's α·Dmax peak threshold are
// normalization-independent. The grid records its support, the span of
// each row beyond which every cell is +0, and its largest value
// (grid.Grid's Spans and MaxV), so the scans that follow need not visit
// the rest. It returns an error for an empty sample set or an invalid
// bandwidth, and one wrapping ErrGridTooLarge for a bandwidth too small
// for the samples' extent.
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
func estimate(ctx context.Context, points []geo.XY, counts []uint32, n int, o Options) (*grid.Grid, error) {
	if o.BandwidthKm <= 0 {
		return nil, fmt.Errorf("kde: bandwidth must be positive, got %v", o.BandwidthKm)
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
	cell := o.BandwidthKm / 4
	fw := math.Ceil((maxX-minX)/cell) + 1
	fh := math.Ceil((maxY-minY)/cell) + 1
	if cells := fw * fh; !(cell > 0) || !(cells <= maxCells) {
		if !(cell > 0) || math.IsNaN(cells) {
			cells = math.Inf(1)
		}
		// Counts a float holds exactly print in full; larger ones in
		// short scientific form.
		need := fmt.Sprintf("%.0f", cells)
		if cells >= 1<<53 {
			need = fmt.Sprintf("%.3g", cells)
		}
		return nil, fmt.Errorf("%w: bandwidth %v km needs %s cells (cap %d)", ErrGridTooLarge, o.BandwidthKm, need, maxCells)
	}
	w, h := int(fw), int(fh)
	g := grid.New(minX, minY, cell, w, h)
	span.SetInt("samples", int64(n))
	span.SetInt("points", int64(len(points)))
	span.SetInt("cells", int64(w*h))
	if o.Obs != nil {
		o.Obs.Counter("eyeball_kde_estimates_total").Inc()
		o.Obs.Counter("eyeball_kde_samples_total").Add(int64(n))
		o.Obs.Gauge("eyeball_kde_grid_cells").Set(float64(w * h))
	}

	// Bin points, noting each row's span of bins: the support the blur
	// starts from.
	binSpan := span.Child("bin")
	g.Spans = make([]grid.Span, h)
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
		if sp := &g.Spans[j]; sp.Lo == sp.Hi {
			*sp = grid.Span{Lo: i, Hi: i + 1}
		} else {
			sp.Lo, sp.Hi = min(sp.Lo, i), max(sp.Hi, i+1)
		}
	}
	binSpan.End()

	// counts → density: the blur divides by N·cell² as it writes, so the
	// surface integrates to 1.
	scale := 1 / (float64(n) * cell * cell)
	if err := blurSeparable(ctx, g, o.BandwidthKm, scale, o.Workers, span); err != nil {
		return nil, err
	}
	if span != nil {
		support := 0
		for _, sp := range g.Spans {
			support += sp.Hi - sp.Lo
		}
		span.SetInt("support_cells", int64(support))
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

// source is a row the vertical pass reads: row j, nonzero only in
// columns [lo, hi) after the horizontal pass.
type source struct{ j, lo, hi int }

// blurSeparable convolves the grid in place with a truncated Gaussian,
// normalized to preserve total mass, and multiplies every cell by scale
// as the vertical pass writes it. It needs no second grid: the
// horizontal pass convolves each row from one row of scratch, and the
// vertical pass is an ascending gather that keeps, per block, only the
// source rows it has already overwritten (see gatherColumns).
//
// It works on the support alone. On entry g.Spans bounds the counts'
// nonzero cells (nil means whole rows). The horizontal pass convolves
// only the rows with a count, each over its span widened by the kernel
// radius; the vertical pass reads only those rows, over those widened
// spans. On return g.Spans bounds the surface's nonzero cells, each row
// the hull of the widened spans within the radius of it, and g.MaxV is
// the surface's largest value, the maximum of the values the vertical
// pass wrote. At a finite scale none of it changes a bit: a cell outside
// the spans is +0, and the passes skip only cells that add +0 to a sum
// or stay +0.
//
// Both passes fan out over the shared worker pool in blocks whose
// boundaries are a fixed function of the grid dimensions, and every
// output cell sums its sources in ascending order wherever its block
// ends, so the result is byte-identical for every worker count —
// including workers == 1, which runs inline with zero synchronization.
// Each block of the vertical pass keeps its own maximum, and the
// maxima are combined after the pass. parent (nil when tracing is off)
// receives one child span per pass, each with one span per convolution
// block, keyed by the block's low index so the rendered trace is
// deterministic regardless of worker scheduling. A cancelled ctx stops
// the fan-out at a block boundary and surfaces ctx.Err(); the grid is
// then partially blurred and must be discarded by the caller.
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
	if g.Spans == nil {
		g.Spans = make([]grid.Span, g.H)
		for j := range g.Spans {
			g.Spans[j] = grid.Span{Lo: 0, Hi: g.W}
		}
	}
	// The rows with a count, ascending, each over its span widened by
	// the radius: the horizontal pass's support.
	rows := 0
	for _, sp := range g.Spans {
		if sp.Lo < sp.Hi {
			rows++
		}
	}
	srcs := make([]source, 0, rows)
	for j, sp := range g.Spans {
		if sp.Lo < sp.Hi {
			srcs = append(srcs, source{j, max(sp.Lo-radius, 0), min(sp.Hi+radius, g.W)})
		}
	}

	// Horizontal pass: each row with a count convolves from a copy of
	// its widened span; rows in a block are processed in order, blocks
	// never overlap. Mass that convolveRow drops at a widened span's edge
	// is mass it drops at the row's edge: the span is cut short only
	// there.
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
		var src []float64
		first := sort.Search(len(srcs), func(k int) bool { return srcs[k].j >= lo })
		for _, s := range srcs[first:] {
			if s.j >= hi {
				break
			}
			if src == nil {
				src = make([]float64, g.W)
			}
			row := g.Data[s.j*g.W+s.lo : s.j*g.W+s.hi]
			copy(src, row)
			convolveRow(row, src[:len(row)], kernel, radius)
		}
		bs.End()
		return nil
	})
	hSpan.End()
	if err != nil {
		return err
	}
	// The surface's support: row j is the hull of its sources' spans.
	first := 0
	for j := range g.Spans {
		for first < len(srcs) && srcs[first].j < j-radius {
			first++
		}
		sp := grid.Span{}
		for _, s := range srcs[first:] {
			if s.j > j+radius {
				break
			}
			if sp.Lo == sp.Hi {
				sp = grid.Span{Lo: s.lo, Hi: s.hi}
			} else {
				sp.Lo, sp.Hi = min(sp.Lo, s.lo), max(sp.Hi, s.hi)
			}
		}
		g.Spans[j] = sp
	}
	// Vertical pass: each block owns a contiguous span of columns and
	// its own ring; writes target disjoint cells.
	vBlock := blurBlock(g.W, g.H)
	tops := make([]float64, (g.W+vBlock-1)/vBlock)
	vSpan := parent.Child("blur_vertical")
	err = parallel.Blocks(ctx, workers, g.W, vBlock, func(lo, hi int) error {
		var bs *trace.Span
		if vSpan != nil {
			bs = vSpan.ChildSeq("cols", lo)
			bs.SetInt("lo", int64(lo))
			bs.SetInt("hi", int64(hi))
		}
		tops[lo/vBlock] = gatherColumns(g, srcs, lo, hi, kernel, radius, scale)
		bs.End()
		return nil
	})
	vSpan.End()
	if err != nil {
		return err
	}
	g.MaxV = 0
	for _, t := range tops {
		if t > g.MaxV {
			g.MaxV = t
		}
	}
	return nil
}

// gatherColumns convolves columns [lo, hi) of g in place along y, writes
// each result times scale, and returns the largest value it wrote (0
// when it wrote none). Output row j is the sum over the sources s within
// the radius of it, ascending, of row s times kernel[j-s+radius] — the
// order in which convolveRow's scatter adds them, since every other row
// is zero after the horizontal pass — so each cell gets bit for bit what
// convolving its column and then multiplying it by scale would give.
// Rows are produced in ascending order: sources at or below j are still
// in g, and the radius rows above it that were already overwritten are
// kept, unscaled, in a ring.
//
// Each source contributes only over its span within the block, and an
// output row is written only over the union of its sources' spans and
// only where g.Spans says the row can be nonzero. Neither can change a
// bit: a sum starts at +0, can never become −0, and adding ±0 to
// anything else returns it; outside the union the row was zero and
// stays zero (the horizontal pass leaves no −0), which is +0 times any
// finite scale.
func gatherColumns(g *grid.Grid, srcs []source, lo, hi int, kernel []float64, radius int, scale float64) float64 {
	w := hi - lo
	slots := min(radius, g.H)
	var acc, ring []float64 // allocated by the first row the block writes
	top := 0.0
	first, end := 0, 0 // srcs[first:end] are the sources within the radius of row j
	for j := 0; j < g.H; j++ {
		for first < len(srcs) && srcs[first].j < j-radius {
			first++
		}
		for end < len(srcs) && srcs[end].j <= j+radius {
			end++
		}
		if sp := g.Spans[j]; sp.Hi <= lo || sp.Lo >= hi {
			continue // the row is zero across the block
		}
		win := srcs[first:end]
		// The union of the sources' spans within the block, in block
		// columns.
		ulo, uhi := w, 0
		for _, s := range win {
			if a, b := max(s.lo, lo), min(s.hi, hi); a < b {
				ulo, uhi = min(ulo, a-lo), max(uhi, b-lo)
			}
		}
		if ulo >= uhi {
			continue // every source is zero across the block
		}
		if acc == nil {
			buf := make([]float64, (slots+1)*w)
			acc, ring = buf[:w], buf[w:]
		}
		clear(acc[ulo:uhi])
		row := g.Data[j*g.W+lo : j*g.W+hi]
		for _, s := range win {
			a, b := max(s.lo, lo)-lo, min(s.hi, hi)-lo
			if a >= b {
				continue
			}
			var src []float64
			if s.j < j {
				src = ring[s.j%slots*w+a : s.j%slots*w+b]
			} else {
				src = g.Data[s.j*g.W+lo+a : s.j*g.W+lo+b]
				if s.j == j && slots > 0 {
					// Row j is overwritten below; the rows after it
					// read it from the ring.
					copy(ring[j%slots*w+a:], src)
				}
			}
			k := kernel[j-s.j+radius]
			d := acc[a:b]
			src = src[:len(d)]
			for x, v := range src {
				d[x] += v * k
			}
		}
		out := row[ulo:uhi]
		for x, v := range acc[ulo:uhi][:len(out)] {
			v *= scale
			out[x] = v
			if v > top {
				top = v
			}
		}
	}
	return top
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
