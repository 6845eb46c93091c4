package grid

import (
	"math"
	"testing"

	"eyeballas/internal/benchgate"
)

func benchGrid() *Grid {
	g := New(-500, -500, 5, 200, 200)
	// A few dozen Gaussian bumps.
	for b := 0; b < 40; b++ {
		cx := float64((b*97)%180-90) * 5
		cy := float64((b*53)%180-90) * 5
		for j := 0; j < g.H; j++ {
			for i := 0; i < g.W; i++ {
				c := g.Center(i, j)
				d2 := (c.X-cx)*(c.X-cx) + (c.Y-cy)*(c.Y-cy)
				g.Add(i, j, math.Exp(-d2/800))
			}
		}
	}
	return g
}

func BenchmarkPeaks(b *testing.B) {
	g := benchGrid()
	max, _, _ := g.Max()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.Peaks(max*0.01)) == 0 {
			b.Fatal("no peaks")
		}
	}
}

// TestPeaksAllocs pins BenchmarkPeaks' allocations: one visited slice,
// the growth of one shared stack, plateau and peak list — not a stack
// and plateau per cell above the floor (17,554 allocations here).
func TestPeaksAllocs(t *testing.T) {
	g := benchGrid()
	max, _, _ := g.Max()
	if allocs := testing.AllocsPerRun(20, func() { g.Peaks(max * 0.01) }); allocs > 16 {
		t.Errorf("Peaks: %.0f allocs/op, budget 16", allocs)
	}
}

func BenchmarkComponents(b *testing.B) {
	g := benchGrid()
	max, _, _ := g.Max()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.Components(max*0.01)) == 0 {
			b.Fatal("no components")
		}
	}
}

// TestComponentsBytes pins that Components' scratch follows the
// partitions, not the grid: BenchmarkComponents' surface set inside a
// zero border, four times its area, must cost the same bytes (within
// 1%) as the surface alone. A visited mark per cell fails it.
func TestComponentsBytes(t *testing.T) {
	g := benchGrid()
	max, _, _ := g.Max()
	framed := New(g.MinX-float64(g.W/2)*g.Cell, g.MinY-float64(g.H/2)*g.Cell, g.Cell, 2*g.W, 2*g.H)
	for j := 0; j < g.H; j++ {
		copy(framed.Data[(j+g.H/2)*framed.W+g.W/2:], g.Data[j*g.W:(j+1)*g.W])
	}
	bare := benchgate.BytesPerRun(20, func() { g.Components(max * 0.01) })
	big := benchgate.BytesPerRun(20, func() { framed.Components(max * 0.01) })
	if big > bare*1.01 || big < bare*0.99 {
		t.Errorf("Components: %.0f B/op framed at 4× the area, %.0f B/op bare; want within 1%%", big, bare)
	}
}
