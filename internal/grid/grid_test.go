package grid

import (
	"math"
	"testing"

	"eyeballas/internal/geo"
)

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero-w":    func() { New(0, 0, 1, 0, 5) },
		"zero-h":    func() { New(0, 0, 1, 5, 0) },
		"zero-cell": func() { New(0, 0, 0, 5, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestIndexingAndCenters(t *testing.T) {
	g := New(-10, -20, 2, 5, 4)
	g.Set(3, 2, 7)
	if g.At(3, 2) != 7 {
		t.Error("Set/At mismatch")
	}
	g.Add(3, 2, 1)
	if g.At(3, 2) != 8 {
		t.Error("Add mismatch")
	}
	c := g.Center(0, 0)
	if c.X != -9 || c.Y != -19 {
		t.Errorf("Center(0,0) = %v", c)
	}
	i, j, ok := g.CellOf(geo.XY{X: -8.9, Y: -18.9})
	if !ok || i != 0 || j != 0 {
		t.Errorf("CellOf = %d,%d,%v", i, j, ok)
	}
	if _, _, ok := g.CellOf(geo.XY{X: 100, Y: 0}); ok {
		t.Error("CellOf out of range should be !ok")
	}
	// Round trip cell -> center -> cell.
	for ii := 0; ii < g.W; ii++ {
		for jj := 0; jj < g.H; jj++ {
			ri, rj, ok := g.CellOf(g.Center(ii, jj))
			if !ok || ri != ii || rj != jj {
				t.Fatalf("round trip (%d,%d) -> (%d,%d,%v)", ii, jj, ri, rj, ok)
			}
		}
	}
}

func TestMaxSumIntegralScale(t *testing.T) {
	g := New(0, 0, 0.5, 4, 4)
	g.Set(1, 2, 3)
	g.Set(2, 1, 5)
	v, i, j := g.Max()
	if v != 5 || i != 2 || j != 1 {
		t.Errorf("Max = %v at %d,%d", v, i, j)
	}
	if g.Sum() != 8 {
		t.Errorf("Sum = %v", g.Sum())
	}
	if math.Abs(g.Integral()-8*0.25) > 1e-12 {
		t.Errorf("Integral = %v", g.Integral())
	}
}

func TestPeaksSimple(t *testing.T) {
	g := New(0, 0, 1, 7, 7)
	// Two bumps of different heights.
	g.Set(1, 1, 5)
	g.Set(5, 5, 9)
	g.Set(5, 4, 2) // shoulder
	peaks := g.Peaks(0)
	if len(peaks) != 2 {
		t.Fatalf("got %d peaks: %+v", len(peaks), peaks)
	}
	if peaks[0].Value != 9 || peaks[0].I != 5 || peaks[0].J != 5 {
		t.Errorf("highest peak = %+v", peaks[0])
	}
	if peaks[1].Value != 5 {
		t.Errorf("second peak = %+v", peaks[1])
	}
}

func TestPeaksFloor(t *testing.T) {
	g := New(0, 0, 1, 5, 5)
	g.Set(1, 1, 5)
	g.Set(3, 3, 0.5)
	if n := len(g.Peaks(1)); n != 1 {
		t.Errorf("floor not applied: %d peaks", n)
	}
}

func TestPeaksPlateau(t *testing.T) {
	g := New(0, 0, 1, 8, 3)
	// A flat-topped ridge: cells (2..5, 1) all equal 4, surrounded by 0.
	for i := 2; i <= 5; i++ {
		g.Set(i, 1, 4)
	}
	peaks := g.Peaks(0)
	if len(peaks) != 1 {
		t.Fatalf("plateau yielded %d peaks, want 1", len(peaks))
	}
	if p := peaks[0]; p.J != 1 || p.I < 2 || p.I > 5 {
		t.Errorf("plateau representative off the plateau: %+v", p)
	}
}

func TestPeaksConstantGridHasNone(t *testing.T) {
	g := New(0, 0, 1, 4, 4)
	for i := range g.Data {
		g.Data[i] = 3
	}
	if n := len(g.Peaks(0)); n != 0 {
		t.Errorf("constant grid yielded %d peaks", n)
	}
}

func TestPeaksShoulderNotPeak(t *testing.T) {
	// A monotone ramp has exactly one peak at the top edge cell.
	g := New(0, 0, 1, 6, 1)
	for i := 0; i < 6; i++ {
		g.Set(i, 0, float64(i))
	}
	peaks := g.Peaks(-1)
	if len(peaks) != 1 || peaks[0].I != 5 {
		t.Errorf("ramp peaks = %+v", peaks)
	}
}

func TestComponents(t *testing.T) {
	g := New(0, 0, 2, 10, 10)
	// Region A: 2x2 block of 4s; region B: single cell of 10; noise below
	// threshold elsewhere.
	g.Set(1, 1, 4)
	g.Set(2, 1, 4)
	g.Set(1, 2, 4)
	g.Set(2, 2, 4)
	g.Set(7, 7, 10)
	g.Set(5, 5, 0.5)
	comps := g.Components(1)
	if len(comps) != 2 {
		t.Fatalf("got %d components", len(comps))
	}
	// Sorted by mass: A has mass 16·4=64, B has 10·4=40.
	if comps[0].Cells != 4 || comps[1].Cells != 1 {
		t.Errorf("component sizes: %+v", comps)
	}
	if comps[0].Mass < comps[1].Mass {
		t.Error("components not sorted by mass")
	}
	if comps[0].AreaKm != 4*4 {
		t.Errorf("area = %v", comps[0].AreaKm)
	}
	if comps[1].PeakV != 10 {
		t.Errorf("peak value = %v", comps[1].PeakV)
	}
	if comps[0].MinI != 1 || comps[0].MaxI != 2 || comps[0].MinJ != 1 || comps[0].MaxJ != 2 {
		t.Errorf("bbox: %+v", comps[0])
	}
}

func TestComponentsDiagonalConnectivity(t *testing.T) {
	g := New(0, 0, 1, 4, 4)
	g.Set(0, 0, 2)
	g.Set(1, 1, 2)
	if n := len(g.Components(1)); n != 1 {
		t.Errorf("diagonal cells split into %d components, want 1 (8-connectivity)", n)
	}
}
