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

// supportOf returns spans that cover every cell of g that is not +0,
// row by row, as a grid's writer records its support. The bytes of
// widen, taken in turn, widen some spans by up to three cells at either
// end (within the grid) and give some rows of +0 a span of their own; the
// other rows of +0 stay empty.
func supportOf(g *Grid, widen []byte) []Span {
	spans := make([]Span, g.H)
	for j := range spans {
		lo, hi := g.W, 0
		for i, v := range g.Data[j*g.W : (j+1)*g.W] {
			if math.Float64bits(v) != 0 {
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
		spans[j] = Span{Lo: lo, Hi: hi}
	}
	return spans
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
		// Cells of 0 amid negative ones: with a floor below 0 they are
		// peaks, and the support cannot bound the scan.
		{"negative-zero-peaks", quantizedGrid(6, 5, 0, -1, -2, -1, -1, -1), -5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := referencePeaks(tc.g, tc.floor)
			if diff := samePeaks(tc.g.Peaks(tc.floor), want); diff != "" {
				t.Fatal(diff)
			}
			// The same surface with its support recorded, exact and
			// widened: the answer must not move, at any floor.
			for _, widen := range [][]byte{nil, {0xc5, 0x00, 0xff, 0x4a, 0x93}} {
				g := *tc.g
				g.Spans = supportOf(&g, widen)
				if diff := samePeaks(g.Peaks(tc.floor), want); diff != "" {
					t.Fatalf("with spans %v: %s", g.Spans, diff)
				}
				if diff := maxDiff(tc.g, widen); diff != "" {
					t.Fatal(diff)
				}
			}
		})
	}
}

// maxDiff reports whether Max of g with its support recorded (spans
// from supportOf over widen, and MaxV its maximum) differs from Max of g
// without it ("" when it does not).
func maxDiff(g *Grid, widen []byte) string {
	bare := *g
	bare.Spans, bare.MaxV = nil, 0
	v, i, j := bare.Max()
	sup := bare
	sup.Spans, sup.MaxV = supportOf(g, widen), v
	sv, si, sj := sup.Max()
	if math.Float64bits(sv) != math.Float64bits(v) || si != i || sj != j {
		return fmt.Sprintf("Max with spans %v = %v at (%d,%d), without %v at (%d,%d)", sup.Spans, sv, si, sj, v, i, j)
	}
	return ""
}

// FuzzPeaksMatchesReference checks Peaks against the reference on
// fuzzed grids: 1–16 cells a side (1×N and N×1 included), values
// quantized to a few levels so plateaus and equal borders are common,
// zero bytes (or a short input) leaving all-zero rows and columns, and
// floors at or below zero as well as above; the top bit of the second
// byte shifts every value down by one, so that cells of 0 amid negative
// ones can be peaks. Each grid then records a fuzzed support (supportOf
// over the input's bytes): Peaks and Max must answer exactly what they
// answered without it.
func FuzzPeaksMatchesReference(f *testing.F) {
	f.Add([]byte{4, 4, 3, 0, 1, 2, 1, 2, 2, 1, 0, 2, 1, 1, 0, 2, 2, 1, 2})
	f.Add([]byte{16, 1, 10, 1, 2, 2, 3, 3, 2, 1, 0, 1, 2})
	f.Add([]byte{1, 16, 2, 1, 1, 0, 1})
	f.Add([]byte{8, 8, 0})
	f.Add([]byte{7, 5, 45, 9, 9, 9, 9, 9, 8, 9, 9, 9, 9, 9, 9, 9, 9, 9, 7})
	f.Add([]byte{4, 0x83, 2, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0})
	floors := []float64{-1, 0, 0.5, 1, 2, 3}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		w, h := 1+int(data[0]%16), 1+int(data[1]%16)
		levels := 1 + int(data[2]%8)
		floor := floors[int(data[2]/8)%len(floors)]
		shift := 0.0
		if data[1]&0x80 != 0 {
			shift = -1
		}
		g := New(0, 0, 1, w, h)
		for k, b := range data[3:] {
			if k >= len(g.Data) {
				break
			}
			g.Data[k] = float64(int(b)%levels) + shift
		}
		bare := g.Peaks(floor)
		if diff := samePeaks(bare, referencePeaks(g, floor)); diff != "" {
			t.Fatalf("%dx%d grid %v floor %v: %s", w, h, g.Data, floor, diff)
		}
		if diff := maxDiff(g, data); diff != "" {
			t.Fatalf("%dx%d grid %v: %s", w, h, g.Data, diff)
		}
		g.Spans = supportOf(g, data)
		if diff := samePeaks(g.Peaks(floor), bare); diff != "" {
			t.Fatalf("%dx%d grid %v floor %v, spans %v: %s", w, h, g.Data, floor, g.Spans, diff)
		}
	})
}
