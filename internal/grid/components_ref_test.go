package grid

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// referenceComponents is the flood fill that Components replaced: every
// unvisited cell at or above the level seeds a partition, which a stack
// floods, summing Mass in pop order; partitions are then sorted by
// descending mass, stable in seed order. It also returns each
// partition's member cells in pop order, the seed first.
func referenceComponents(g *Grid, level float64) ([]Component, [][]int) {
	visited := make([]bool, len(g.Data))
	var (
		comps   []Component
		members [][]int
		stack   [][2]int
	)
	for j := 0; j < g.H; j++ {
		for i := 0; i < g.W; i++ {
			idx := g.Index(i, j)
			if visited[idx] || g.Data[idx] < level {
				continue
			}
			c := Component{MinI: i, MinJ: j, MaxI: i, MaxJ: j}
			var cells []int
			stack = append(stack[:0], [2]int{i, j})
			visited[idx] = true
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				cells = append(cells, g.Index(cur[0], cur[1]))
				v := g.At(cur[0], cur[1])
				c.Cells++
				c.Mass += v
				if v > c.PeakV {
					c.PeakV = v
				}
				if cur[0] < c.MinI {
					c.MinI = cur[0]
				}
				if cur[0] > c.MaxI {
					c.MaxI = cur[0]
				}
				if cur[1] < c.MinJ {
					c.MinJ = cur[1]
				}
				if cur[1] > c.MaxJ {
					c.MaxJ = cur[1]
				}
				for _, d := range neighbours {
					ni, nj := cur[0]+d[0], cur[1]+d[1]
					if ni < 0 || ni >= g.W || nj < 0 || nj >= g.H {
						continue
					}
					nidx := g.Index(ni, nj)
					if !visited[nidx] && g.Data[nidx] >= level {
						visited[nidx] = true
						stack = append(stack, [2]int{ni, nj})
					}
				}
			}
			c.AreaKm = float64(c.Cells) * g.Cell * g.Cell
			c.Mass *= g.Cell * g.Cell
			comps = append(comps, c)
			members = append(members, cells)
		}
	}
	for i := 1; i < len(comps); i++ {
		c, m := comps[i], members[i]
		j := i - 1
		for j >= 0 && c.Mass > comps[j].Mass {
			comps[j+1], members[j+1] = comps[j], members[j]
			j--
		}
		comps[j+1], members[j+1] = c, m
	}
	return comps, members
}

// sameComponents reports the first difference between Components' answer
// and the reference's ("" when there is none). Count, Cells, AreaKm,
// PeakV and the bounding box must be exactly the reference's, and Mass
// bit for bit the row-major sum of the reference partition's cells
// times Cell², within 1e-12 relative of the reference's pop-order Mass.
//
// The order must be the reference's partitions in seed order, stably
// sorted by that row-major Mass. Where the two masses sort alike, that
// is the reference's own order, and with strict it must be. Otherwise
// only partitions whose pop-order masses are within 1e-12 of each other
// may trade places: the summation order moves a mass by a few ulps, so
// it can only reorder a near tie.
func sameComponents(g *Grid, level float64, got []Component, strict bool) string {
	ref, members := referenceComponents(g, level)
	if (got == nil) != (ref == nil) || len(got) != len(ref) {
		return fmt.Sprintf("%d partitions (nil %v), reference %d (nil %v)", len(got), got == nil, len(ref), ref == nil)
	}
	type part struct {
		c        Component
		popMass  float64
		seed     int
		refIndex int
	}
	want := make([]part, len(ref))
	for k, c := range ref {
		cells := slices.Clone(members[k])
		slices.Sort(cells)
		m := 0.0
		for _, idx := range cells {
			m += g.Data[idx]
		}
		want[k] = part{c: c, popMass: c.Mass, seed: cells[0], refIndex: k}
		want[k].c.Mass = m * (g.Cell * g.Cell)
	}
	slices.SortFunc(want, func(a, b part) int { return a.seed - b.seed })
	slices.SortStableFunc(want, func(a, b part) int {
		switch {
		case a.c.Mass > b.c.Mass:
			return -1
		case a.c.Mass < b.c.Mass:
			return 1
		}
		return 0
	})
	bits := math.Float64bits
	for k, w := range want {
		gc := got[k]
		if gc.Cells != w.c.Cells || gc.MinI != w.c.MinI || gc.MinJ != w.c.MinJ || gc.MaxI != w.c.MaxI || gc.MaxJ != w.c.MaxJ ||
			bits(gc.AreaKm) != bits(w.c.AreaKm) || bits(gc.PeakV) != bits(w.c.PeakV) || bits(gc.Mass) != bits(w.c.Mass) {
			return fmt.Sprintf("partition %d = %+v, want %+v (reference partition %d)", k, gc, w.c, w.refIndex)
		}
		if !within(gc.Mass, w.popMass, 1e-12) {
			return fmt.Sprintf("partition %d: Mass %.17g, reference pop-order Mass %.17g", k, gc.Mass, w.popMass)
		}
		if w.refIndex == k {
			continue
		}
		if strict {
			return fmt.Sprintf("partition %d is the reference's partition %d", k, w.refIndex)
		}
		if !within(w.popMass, ref[k].Mass, 1e-12) {
			return fmt.Sprintf("partition %d is the reference's partition %d, and their masses %.17g and %.17g are no tie",
				k, w.refIndex, w.popMass, ref[k].Mass)
		}
	}
	return ""
}

// within reports whether a is within rel of b, relative to b.
func within(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Abs(b)
}

// maskGrid draws a grid from rows of '#' (value v, the row-major count
// of '#' so far times step, plus base) and '.' (zero).
func maskGrid(base, step float64, rows ...string) *Grid {
	g := New(-3, 7, 2.5, len(rows[0]), len(rows))
	n := 0
	for j, r := range rows {
		for i, ch := range r {
			if ch == '#' {
				g.Set(i, j, base+float64(n)*step)
				n++
			}
		}
	}
	return g
}

func TestComponentsMatchesReference(t *testing.T) {
	bumps := benchGrid()
	bmax, _, _ := bumps.Max()
	// benchGrid's bumps are congruent, so some of its partitions have
	// masses within ulps of each other (4992.680512714035 and
	// 4992.680512714029 at level 0.01), and their order follows the
	// summation order. The other surfaces must keep the reference's.
	nearTies := map[string]bool{"bumps": true, "bumps-level-0.3": true}
	cases := []struct {
		name  string
		g     *Grid
		level float64
	}{
		{"bumps", bumps, bmax * 0.01},
		{"bumps-level-0.3", bumps, bmax * 0.3},
		// Two arms, seeded apart, meet in the bottom row: the union
		// folds the right arm's partition into the left's.
		{"u", maskGrid(0.1, 0.1,
			"#..#....#",
			"#..#....#",
			"####....#",
			".........",
			"..##.....",
		), 0.05},
		// Three arms join one by one in later rows, the right one first,
		// through diagonal steps.
		{"fork", maskGrid(0.7, 0.3,
			"#.#.#.#",
			"#.#.#.#",
			".#..##.",
			"..#.#..",
			"...#...",
		), 0.5},
		{"diagonal-only", maskGrid(1, 0.01,
			"#.....#",
			".#...#.",
			"..#.#..",
			"...#...",
			"..#.#..",
			"#.....#",
		), 0.5},
		{"edge-runs", maskGrid(0.2, 0.05,
			"###...###",
			".........",
			"#########",
			".........",
			"##.....##",
			"#.......#",
		), 0.1},
		{"row-1xN", maskGrid(0.1, 0.2, "##.###..#.##"), 0.05},
		{"column-Nx1", maskGrid(0.1, 0.2, "#", "#", ".", "#", "#", "#", ".", ".", "#", "."), 0.05},
		{"single-cell", quantizedGrid(1, 1, 5), 0},
		{"level-0-all-cells", maskGrid(0.3, 0.1, "#..#", "....", ".#.."), 0},
		{"level-negative", quantizedGrid(5, 4, 0, 1, 2), -1},
		{"level-above-max", maskGrid(0.3, 0.1, "#..#", "....", ".#.."), 1},
		{"all-zero", New(0, 0, 1, 6, 4), 0.5},
		// Equal blobs, then a heavier one last: ties keep seed order.
		{"equal-mass", maskGrid(0.5, 0,
			"##..##..#..",
			"#...#...##.",
			"...........",
			"##......###",
			"#.......##.",
		), 0.1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bare := tc.g.Components(tc.level)
			if diff := sameComponents(tc.g, tc.level, bare, !nearTies[tc.name]); diff != "" {
				t.Fatal(diff)
			}
			// The same surface with its support recorded, exact and
			// widened: the answer must not move, at any level.
			for _, widen := range [][]byte{nil, {0xc5, 0x00, 0xff, 0x4a, 0x93}} {
				g := *tc.g
				g.Spans = supportOf(&g, widen)
				if diff := identicalComponents(g.Components(tc.level), bare); diff != "" {
					t.Fatalf("with spans %v: %s", g.Spans, diff)
				}
			}
		})
	}
}

// identicalComponents reports the first difference between two
// partition lists, floats bit for bit ("" when they are identical).
func identicalComponents(got, want []Component) string {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("%d partitions (nil %v), want %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	bits := math.Float64bits
	for k, g := range got {
		w := want[k]
		if g.Cells != w.Cells || g.MinI != w.MinI || g.MinJ != w.MinJ || g.MaxI != w.MaxI || g.MaxJ != w.MaxJ ||
			bits(g.AreaKm) != bits(w.AreaKm) || bits(g.Mass) != bits(w.Mass) || bits(g.PeakV) != bits(w.PeakV) {
			return fmt.Sprintf("partition %d = %+v, want %+v", k, g, w)
		}
	}
	return ""
}

// FuzzComponentsMatchesReference checks Components against the flood
// fill on fuzzed grids: 1–32 cells a side (1×N and N×1 included), finite
// values on a few levels, so that runs, gaps, forks and diagonal links
// are common, and levels at or below zero, between the values and above
// them all. The values are multiples of 0.1, whose sums round, so Mass
// moves with the summation order. Each grid then records a fuzzed
// support (supportOf over the input's bytes): Components must answer
// exactly what it answered without it.
func FuzzComponentsMatchesReference(f *testing.F) {
	f.Add([]byte{4, 4, 3, 0, 1, 2, 1, 2, 2, 1, 0, 2, 1, 1, 0, 2, 2, 1, 2})
	f.Add([]byte{31, 0, 10, 1, 2, 2, 0, 3, 2, 1, 0, 1, 2})
	f.Add([]byte{0, 31, 2, 1, 1, 0, 1})
	f.Add([]byte{8, 8, 0})
	f.Add([]byte{9, 6, 45, 3, 0, 3, 0, 3, 0, 0, 3, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 0, 3, 0, 0, 3, 3, 3, 3, 3, 0, 3})
	levels := []float64{-1, 0, 0.05, 0.1, 0.25, 0.3, 0.45, 2}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		w, h := 1+int(data[0]%32), 1+int(data[1]%32)
		steps := 1 + int(data[2]%8)
		level := levels[int(data[2]/8)%len(levels)]
		g := New(0, 0, 1, w, h)
		for k, b := range data[3:] {
			if k >= len(g.Data) {
				break
			}
			g.Data[k] = float64(int(b)%steps) * 0.1
		}
		bare := g.Components(level)
		if diff := sameComponents(g, level, bare, false); diff != "" {
			t.Fatalf("%dx%d grid %v level %v: %s", w, h, g.Data, level, diff)
		}
		g.Spans = supportOf(g, data)
		if diff := identicalComponents(g.Components(level), bare); diff != "" {
			t.Fatalf("%dx%d grid %v level %v, spans %v: %s", w, h, g.Data, level, g.Spans, diff)
		}
	})
}
