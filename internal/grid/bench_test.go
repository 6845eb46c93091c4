package grid

import (
	"math"
	"testing"
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.Components(max*0.01)) == 0 {
			b.Fatal("no components")
		}
	}
}

func BenchmarkContourLines(b *testing.B) {
	g := benchGrid()
	max, _, _ := g.Max()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.ContourLines(max*0.2)) == 0 {
			b.Fatal("no contours")
		}
	}
}
