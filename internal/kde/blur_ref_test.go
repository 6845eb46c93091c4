package kde

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"eyeballas/internal/grid"
)

// referenceBlur is the two-buffer blur that blurSeparable replaced, run
// serially (its bytes never depended on the worker count): every row of
// g convolves into a temporary grid, then every column of that grid,
// copied out into a column buffer, convolves back into g.
func referenceBlur(g *grid.Grid, bandwidthKm float64) {
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
	for j := 0; j < g.H; j++ {
		convolveRow(tmp[j*g.W:(j+1)*g.W], g.Data[j*g.W:(j+1)*g.W], kernel, radius)
	}
	col := make([]float64, g.H)
	outCol := make([]float64, g.H)
	for i := 0; i < g.W; i++ {
		for j := 0; j < g.H; j++ {
			col[j] = tmp[j*g.W+i]
		}
		convolveRow(outCol, col, kernel, radius)
		for j := 0; j < g.H; j++ {
			g.Data[j*g.W+i] = outCol[j]
		}
	}
}

// blurMatchesReference blurs src with referenceBlur followed by a
// multiply of every cell by scale, the pass the blur's write replaced,
// and a copy of src with blurSeparable at the given scale and worker
// count from each of the given supports of the counts (nil: whole
// rows). It reports the first cell whose bits differ, a cell that is not
// +0 outside the support the blur recorded, or a recorded maximum whose
// bits differ from the reference surface's Max ("" when there is none).
func blurMatchesReference(src *grid.Grid, bandwidthKm, scale float64, workers int, supports ...[]grid.Span) string {
	want := grid.New(src.MinX, src.MinY, src.Cell, src.W, src.H)
	copy(want.Data, src.Data)
	referenceBlur(want, bandwidthKm)
	for k := range want.Data {
		want.Data[k] *= scale
	}
	wantMax, _, _ := want.Max()
	for _, spans := range supports {
		got := grid.New(src.MinX, src.MinY, src.Cell, src.W, src.H)
		copy(got.Data, src.Data)
		got.Spans = slices.Clone(spans)
		if err := blurSeparable(context.Background(), got, bandwidthKm, scale, workers, nil); err != nil {
			return err.Error()
		}
		for k := range want.Data {
			if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
				return fmt.Sprintf("from spans %v: cell (%d,%d) = %.17g, reference %.17g",
					spans, k%src.W, k/src.W, got.Data[k], want.Data[k])
			}
		}
		if len(got.Spans) != got.H {
			return fmt.Sprintf("from spans %v: %d spans for %d rows", spans, len(got.Spans), got.H)
		}
		for j, sp := range got.Spans {
			for i, v := range got.Data[j*got.W : (j+1)*got.W] {
				if (i < sp.Lo || i >= sp.Hi) && math.Float64bits(v) != 0 {
					return fmt.Sprintf("from spans %v: cell (%d,%d) = %.17g, outside its row's span %v", spans, i, j, v, sp)
				}
			}
		}
		if math.Float64bits(got.MaxV) != math.Float64bits(wantMax) {
			return fmt.Sprintf("from spans %v: recorded maximum %.17g, reference Max %.17g", spans, got.MaxV, wantMax)
		}
	}
	return ""
}

// binSupport returns spans that cover every nonzero count of g, row by
// row, as binning records them. The bytes of widen, taken in turn, widen
// some spans by up to three cells at either end (within the grid) and
// give some rows with no count a span of their own; the other rows with
// no count stay empty.
func binSupport(g *grid.Grid, widen []byte) []grid.Span {
	spans := make([]grid.Span, g.H)
	for j := range spans {
		lo, hi := g.W, 0
		for i, v := range g.Data[j*g.W : (j+1)*g.W] {
			if v != 0 {
				lo, hi = min(lo, i), i+1
			}
		}
		var b byte
		if len(widen) > 0 {
			b = widen[j%len(widen)]
		}
		if lo >= hi {
			if b&0x40 == 0 {
				continue
			}
			lo = int(b) % g.W
			hi = lo
		}
		if b&0x80 != 0 {
			lo, hi = max(lo-int(b&3), 0), min(hi+int(b>>2&3), g.W)
		}
		spans[j] = grid.Span{Lo: lo, Hi: hi}
	}
	return spans
}

// countsGrid places counts on a w×h grid of 1 km cells at a stride that
// spreads them over rows and columns; every other cell is zero.
func countsGrid(w, h, stride int, counts ...float64) *grid.Grid {
	g := grid.New(0, 0, 1, w, h)
	for k, c := range counts {
		g.Data[(k*stride)%len(g.Data)] += c
	}
	return g
}

func TestBlurMatchesReference(t *testing.T) {
	zeroLines := countsGrid(40, 30, 7, 1, 3, 2, 5, 1, 1, 4, 2, 9, 1, 2, 6, 3)
	for j := 0; j < zeroLines.H; j++ {
		zeroLines.Data[j*zeroLines.W+11] = 0 // an all-zero column
	}
	for i := 0; i < zeroLines.W; i++ {
		zeroLines.Data[17*zeroLines.W+i] = 0 // and an all-zero row
	}
	binned := grid.New(0, 0, 10, 301, 233) // several blocks per pass
	samples := determinismSamples(4000, 2000)
	for _, s := range samples {
		if i, j, ok := binned.CellOf(s); ok {
			binned.Add(i, j, 1)
		}
	}
	cases := []struct {
		name string
		g    *grid.Grid
		bw   float64 // km; with 1 km cells the radius is 4·bw
	}{
		{"binned-samples", binned, 40},
		{"binned-samples-wide-kernel", binned, 250},
		{"zero-row-and-column", zeroLines, 2},
		{"row-1xN", countsGrid(50, 1, 3, 1, 2, 3, 4, 5, 6), 2},
		{"column-Nx1", countsGrid(1, 50, 3, 1, 2, 3, 4, 5, 6), 2},
		{"narrower-than-radius", countsGrid(5, 60, 11, 2, 1, 7, 1, 3, 8), 3},
		{"shorter-than-radius", countsGrid(60, 5, 11, 2, 1, 7, 1, 3, 8), 3},
		{"smaller-than-radius", countsGrid(3, 4, 5, 1, 2, 3), 10},
		{"single-cell", countsGrid(1, 1, 1, 7), 1},
		{"all-zero", grid.New(0, 0, 1, 20, 20), 2},
		{"long-row-many-blocks", countsGrid(40000, 2, 997, 1, 2, 3, 4, 5), 1},
		{"tall-column-many-blocks", countsGrid(2, 40000, 997, 1, 2, 3, 4, 5), 1},
	}
	for _, tc := range cases {
		// Whole rows, the counts' exact support, and a widened one.
		supports := [][]grid.Span{nil, binSupport(tc.g, nil), binSupport(tc.g, []byte{0xc5, 0x00, 0xff, 0x4a, 0x93})}
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers%d", tc.name, workers), func(t *testing.T) {
				// 1, and a 1/(N·cell²) density scale whose products round.
				for _, scale := range []float64{1, 1 / (4000 * 2.5 * 2.5)} {
					if diff := blurMatchesReference(tc.g, tc.bw, scale, workers, supports...); diff != "" {
						t.Fatalf("%dx%d grid, bw %v, scale %v: %s", tc.g.W, tc.g.H, tc.bw, scale, diff)
					}
				}
			})
		}
	}
}

// FuzzBlurMatchesReference checks the in-place blur against the
// reference, bit for bit, on fuzzed grids: 1–256 cells a side (so 1×N,
// N×1 and grids past one convolution block), kernel radii 1–40 (so grids
// narrower or shorter than the radius), sparse counts that leave
// all-zero rows and columns, 1, 2 or 8 workers, and finite scales: a
// density scale, 1, 0, and ones that take products subnormal or large.
// Each grid is blurred from whole rows and from its counts' support,
// widened by the input's bytes; the support the blur records must cover
// every cell that is not +0, and its recorded maximum must be the
// reference surface's Max bit for bit.
func FuzzBlurMatchesReference(f *testing.F) {
	f.Add([]byte{30, 20, 7, 0, 1, 5, 3, 9, 2})
	f.Add([]byte{255, 0, 15, 1, 4, 4, 4})
	f.Add([]byte{0, 255, 39, 2, 1, 200, 3})
	f.Add([]byte{255, 200, 3, 1, 9, 0, 0, 7, 1, 1, 1, 250})
	f.Add([]byte{2, 3, 20, 0, 1})
	// A sparse continental surface: a 256×192 grid, two blocks a pass,
	// at the served kernel's radius of 16 cells, with six counts in rows
	// 0, 84, 86, 122, 153 and 189, so that some rows are beyond the
	// kernel's reach; at 1, 2 and 8 workers with the density scale.
	for _, workers := range []byte{0, 1, 2} {
		f.Add([]byte{255, 191, 15, workers, 40, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 12, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 200, 0, 0, 0, 0, 0, 0, 0, 0, 7})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		w, h := 1+int(data[0]), 1+int(data[1])
		radius := 1 + int(data[2]%40)
		workers := []int{1, 2, 8}[int(data[3])%3]
		scale := []float64{1 / (3000 * 2.5 * 2.5), 1, 0, 1e-310, 1e300}[int(data[3]/3)%5]
		g := grid.New(0, 0, 1, w, h)
		for k, b := range data[4:] {
			g.Data[(k*7919)%len(g.Data)] += float64(b)
		}
		if diff := blurMatchesReference(g, float64(radius)/4, scale, workers, nil, binSupport(g, data)); diff != "" {
			t.Fatalf("%dx%d grid, radius %d, workers %d, scale %v: %s", w, h, radius, workers, scale, diff)
		}
	})
}
