package grid

import (
	"fmt"
	"math"
	"testing"
)

// referencePeaks is the flood-every-cell peak search that Peaks replaced:
// every unvisited cell above the floor floods its plateau, with a fresh
// stack and plateau per flood. Peaks must return exactly what it does.
func referencePeaks(g *Grid, floor float64) []Peak {
	visited := make([]bool, len(g.Data))
	var peaks []Peak
	for j := 0; j < g.H; j++ {
		for i := 0; i < g.W; i++ {
			idx := g.Index(i, j)
			if visited[idx] || g.Data[idx] <= floor {
				continue
			}
			v := g.Data[idx]
			stack := [][2]int{{i, j}}
			visited[idx] = true
			var plateau [][2]int
			isPeak := true
			hasLower := false
			for len(stack) > 0 {
				c := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				plateau = append(plateau, c)
				for _, d := range neighbours {
					ni, nj := c[0]+d[0], c[1]+d[1]
					if ni < 0 || ni >= g.W || nj < 0 || nj >= g.H {
						continue
					}
					nv := g.At(ni, nj)
					switch {
					case nv > v:
						isPeak = false
					case nv < v:
						hasLower = true
					default:
						nidx := g.Index(ni, nj)
						if !visited[nidx] {
							visited[nidx] = true
							stack = append(stack, [2]int{ni, nj})
						}
					}
				}
			}
			if !isPeak || !hasLower {
				continue
			}
			var cx, cy float64
			for _, c := range plateau {
				cx += float64(c[0])
				cy += float64(c[1])
			}
			cx /= float64(len(plateau))
			cy /= float64(len(plateau))
			best := plateau[0]
			bestD := math.Inf(1)
			for _, c := range plateau {
				d := (float64(c[0])-cx)*(float64(c[0])-cx) + (float64(c[1])-cy)*(float64(c[1])-cy)
				if d < bestD {
					bestD, best = d, c
				}
			}
			peaks = append(peaks, Peak{I: best[0], J: best[1], XY: g.Center(best[0], best[1]), Value: v})
		}
	}
	sortPeaks(peaks)
	return peaks
}

// samePeaks reports the first difference between two peak lists, bit
// for bit, or "" when they are identical.
func samePeaks(got, want []Peak) string {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("%d peaks (nil %v), reference %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	bits := math.Float64bits
	for k := range got {
		g, w := got[k], want[k]
		if g.I != w.I || g.J != w.J || bits(g.Value) != bits(w.Value) ||
			bits(g.XY.X) != bits(w.XY.X) || bits(g.XY.Y) != bits(w.XY.Y) {
			return fmt.Sprintf("peak %d = %+v, reference %+v", k, g, w)
		}
	}
	return ""
}

// quantizedGrid fills a w×h grid from vals, cycling, so few distinct
// levels force plateaus, ties and equal-valued borders.
func quantizedGrid(w, h int, vals ...float64) *Grid {
	g := New(-3, 7, 2.5, w, h)
	for k := range g.Data {
		g.Data[k] = vals[k%len(vals)]
	}
	return g
}

func TestPeaksMatchesReference(t *testing.T) {
	bumps := benchGrid()
	bmax, _, _ := bumps.Max()
	zeroLines := quantizedGrid(9, 7, 0, 1, 2, 2, 1, 3, 0, 2)
	for j := 0; j < zeroLines.H; j++ {
		zeroLines.Set(4, j, 0) // an all-zero column
	}
	for i := 0; i < zeroLines.W; i++ {
		zeroLines.Set(i, 3, 0) // and an all-zero row
	}
	plateau := New(0, 0, 1, 8, 6)
	for j := 1; j < 5; j++ {
		for i := 1; i < 7; i++ {
			plateau.Set(i, j, 2) // a 6×4 plateau, centroid between cells
		}
	}
	cases := []struct {
		name  string
		g     *Grid
		floor float64
	}{
		{"bumps", bumps, bmax * 0.01},
		{"bumps-floor-0", bumps, 0},
		{"quantized-3", quantizedGrid(13, 11, 0, 1, 2, 1, 2, 2, 1, 0, 2), 0},
		{"quantized-2-floor-neg", quantizedGrid(10, 10, 1, 1, 0, 1), -1},
		{"quantized-floor-1", quantizedGrid(12, 9, 3, 1, 3, 3, 2, 1, 3), 1},
		{"constant", quantizedGrid(5, 5, 4), 0},
		{"row-1xN", quantizedGrid(17, 1, 0, 2, 1, 2, 2, 3, 1), 0},
		{"column-Nx1", quantizedGrid(1, 17, 0, 2, 1, 2, 2, 3, 1), -1},
		{"single-cell", quantizedGrid(1, 1, 5), 0},
		{"zero-row-and-column", zeroLines, 0},
		{"plateau-even-centroid", plateau, 0},
		{"plateau-floor-neg", plateau, -5},
		{"all-zero", New(0, 0, 1, 6, 4), -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if diff := samePeaks(tc.g.Peaks(tc.floor), referencePeaks(tc.g, tc.floor)); diff != "" {
				t.Fatal(diff)
			}
		})
	}
}

// FuzzPeaksMatchesReference checks Peaks against the reference on
// fuzzed grids: 1–16 cells a side (1×N and N×1 included), values
// quantized to a few levels so plateaus and equal borders are common,
// zero bytes (or a short input) leaving all-zero rows and columns, and
// floors at or below zero as well as above.
func FuzzPeaksMatchesReference(f *testing.F) {
	f.Add([]byte{4, 4, 3, 0, 1, 2, 1, 2, 2, 1, 0, 2, 1, 1, 0, 2, 2, 1, 2})
	f.Add([]byte{16, 1, 10, 1, 2, 2, 3, 3, 2, 1, 0, 1, 2})
	f.Add([]byte{1, 16, 2, 1, 1, 0, 1})
	f.Add([]byte{8, 8, 0})
	f.Add([]byte{7, 5, 45, 9, 9, 9, 9, 9, 8, 9, 9, 9, 9, 9, 9, 9, 9, 9, 7})
	floors := []float64{-1, 0, 0.5, 1, 2, 3}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		w, h := 1+int(data[0]%16), 1+int(data[1]%16)
		levels := 1 + int(data[2]%8)
		floor := floors[int(data[2]/8)%len(floors)]
		g := New(0, 0, 1, w, h)
		for k, b := range data[3:] {
			if k >= len(g.Data) {
				break
			}
			g.Data[k] = float64(int(b) % levels)
		}
		if diff := samePeaks(g.Peaks(floor), referencePeaks(g, floor)); diff != "" {
			t.Fatalf("%dx%d grid %v floor %v: %s", w, h, g.Data, floor, diff)
		}
	})
}
