// Package grid provides dense two-dimensional float grids in a local
// km-space, with the operations kernel density surfaces need: local-maximum
// (peak) detection with plateau handling and thresholded connected
// components (the paper's footprint "partitions").
package grid

import (
	"fmt"
	"math"

	"eyeballas/internal/geo"
)

// Grid is a dense row-major 2-D grid over a rectangle of local km-space.
// Cell (i, j) covers [MinX + i·Cell, MinX + (i+1)·Cell) ×
// [MinY + j·Cell, MinY + (j+1)·Cell); values are attributed to cell
// centres.
type Grid struct {
	MinX, MinY float64 // lower-left corner, km
	Cell       float64 // cell edge, km
	W, H       int     // columns (x), rows (y)
	Data       []float64
	// Spans, when not nil, is the grid's support, one span per row:
	// every cell of row j outside Spans[j] is +0. Nil means whole rows.
	// Max, Peaks and Components scan only the spans wherever a cell of 0
	// cannot change their answer. Whoever changes Data must keep Spans
	// true or set it to nil.
	Spans []Span
	// MaxV is the largest cell value as the grid's writer recorded it (a
	// KDE surface records it as the blur writes each cell); 0 when none
	// did. It is kept true as Spans is.
	MaxV float64
}

// Span is the columns [Lo, Hi) of one row; Lo == Hi is an empty row.
type Span struct{ Lo, Hi int }

// New allocates a zeroed grid. It panics on non-positive dimensions or
// cell size.
func New(minX, minY, cell float64, w, h int) *Grid {
	if w <= 0 || h <= 0 || cell <= 0 {
		panic(fmt.Sprintf("grid: invalid dimensions %dx%d cell %v", w, h, cell))
	}
	return &Grid{MinX: minX, MinY: minY, Cell: cell, W: w, H: h, Data: make([]float64, w*h)}
}

// Index returns the flat index of cell (i, j). No bounds check.
func (g *Grid) Index(i, j int) int { return j*g.W + i }

// At returns the value of cell (i, j).
func (g *Grid) At(i, j int) float64 { return g.Data[j*g.W+i] }

// Set assigns the value of cell (i, j).
func (g *Grid) Set(i, j int, v float64) { g.Data[j*g.W+i] = v }

// Add accumulates into cell (i, j).
func (g *Grid) Add(i, j int, v float64) { g.Data[j*g.W+i] += v }

// Center returns the km-space coordinates of the centre of cell (i, j).
func (g *Grid) Center(i, j int) geo.XY {
	return geo.XY{X: g.MinX + (float64(i)+0.5)*g.Cell, Y: g.MinY + (float64(j)+0.5)*g.Cell}
}

// CellOf returns the cell containing the km-space point, and whether it is
// inside the grid. Membership follows the half-open edge definition in the
// type doc exactly: a point one ulp inside the grid's outer edge is inside,
// the edge itself is not.
func (g *Grid) CellOf(p geo.XY) (i, j int, ok bool) {
	i = cellIndex(p.X, g.MinX, g.Cell)
	j = cellIndex(p.Y, g.MinY, g.Cell)
	return i, j, i >= 0 && i < g.W && j >= 0 && j < g.H
}

// cellIndex locates x on the axis starting at min with the given cell
// size. The floor-of-division estimate can land one cell off the
// defining edges (the division rounds: x one ulp below an edge can
// quotient exactly to the edge's cell), so the estimate is corrected
// against the min + i·cell expressions that define cell bounds.
func cellIndex(x, min, cell float64) int {
	i := int(math.Floor((x - min) / cell))
	if x < min+float64(i)*cell {
		i--
	} else if x >= min+float64(i+1)*cell {
		i++
	}
	return i
}

// support returns the columns of row j a scan must visit: the row's
// span when the grid records its support and zeroSkipped says that a
// cell of 0 cannot change the scan's answer, else the whole row.
func (g *Grid) support(j int, zeroSkipped bool) (lo, hi int) {
	if g.Spans == nil || !zeroSkipped {
		return 0, g.W
	}
	s := g.Spans[j]
	return s.Lo, s.Hi
}

// Max returns the maximum cell value and its cell coordinates, the first
// in row-major order on a tie. An empty (all-zero) grid returns 0 at
// (0, 0). A positive MaxV says the maximum is positive, so it lies in
// the spans and only they are scanned.
func (g *Grid) Max() (v float64, i, j int) {
	v = g.Data[0]
	for r := 0; r < g.H; r++ {
		lo, hi := g.support(r, g.MaxV > 0)
		for c, d := range g.Data[r*g.W+lo : r*g.W+hi] {
			if d > v {
				v, i, j = d, lo+c, r
			}
		}
	}
	return v, i, j
}

// Sum returns the sum of all cell values.
func (g *Grid) Sum() float64 {
	s := 0.0
	for _, d := range g.Data {
		s += d
	}
	return s
}

// Integral returns Sum·Cell², the approximate integral of the surface.
func (g *Grid) Integral() float64 { return g.Sum() * g.Cell * g.Cell }

// Peak is a strict local maximum of the surface.
type Peak struct {
	I, J  int     // cell coordinates
	XY    geo.XY  // cell-centre coordinates, km
	Value float64 // surface value at the peak
}

var neighbours = [8][2]int{{-1, -1}, {0, -1}, {1, -1}, {-1, 0}, {1, 0}, {-1, 1}, {0, 1}, {1, 1}}

// Peaks returns the local maxima of the surface, highest first. A cell is
// a peak if no 8-neighbour exceeds it and at least one in-grid neighbour
// is strictly lower; plateaus (connected equal-valued regions whose entire
// border is lower) contribute a single representative cell each. Cells
// with value <= floor are ignored.
//
// A cell with a strictly higher neighbour is rejected before any flood:
// its plateau cannot be a peak, and a peak plateau holds no such cell, so
// every peak plateau is still flooded from its first cell in row-major
// order and keeps the representative a flood of every cell would pick.
// Each row is scanned with its neighbour rows beside it, and a cell off
// the grid's border is rejected by eight direct compares, the answer
// neighbourOrder would give; border cells and cells with no higher
// neighbour take neighbourOrder itself. One stack and one plateau slice
// serve every flood of a call, and the visited marks are allocated only
// once a cell has an equal neighbour. With a floor ≥ 0 no cell of 0 is a
// candidate, so only the spans are scanned.
func (g *Grid) Peaks(floor float64) []Peak {
	var (
		peaks          []Peak
		visited        []bool
		stack, plateau []int
	)
	for j := 0; j < g.H; j++ {
		// The row's columns to scan, widened by one each side: a cell
		// outside the span is +0, never a candidate, and every scanned
		// cell off the grid's border has its neighbours in the slices.
		lo, hi := g.support(j, floor >= 0)
		lo, hi = max(lo-1, 0), min(hi+1, g.W)
		row := g.Data[j*g.W+lo : j*g.W+hi]
		interior := j > 0 && j+1 < g.H
		up, down := row, row
		if interior {
			up, down = g.Data[(j-1)*g.W+lo:], g.Data[(j+1)*g.W+lo:]
		}
		// Resliced to the row's length, so that the compares below need
		// no bounds checks.
		up, down = up[:len(row)], down[:len(row)]
		for k, v := range row {
			if v <= floor {
				continue
			}
			if interior && k > 0 && k+1 < len(row) &&
				(up[k-1] > v || up[k] > v || up[k+1] > v ||
					row[k-1] > v || row[k+1] > v ||
					down[k-1] > v || down[k] > v || down[k+1] > v) {
				continue
			}
			i := lo + k
			idx := j*g.W + i
			if visited != nil && visited[idx] {
				continue
			}
			higher, equal, lower := g.neighbourOrder(i, j, v)
			if higher {
				continue
			}
			if !equal {
				// A one-cell plateau is its own representative.
				if lower {
					peaks = append(peaks, Peak{I: i, J: j, XY: g.Center(i, j), Value: v})
				}
				continue
			}
			// Flood-fill the plateau of equal value containing (i, j),
			// checking that nothing around it is higher.
			if visited == nil {
				visited = make([]bool, len(g.Data))
			}
			visited[idx] = true
			stack = append(stack[:0], idx)
			plateau = plateau[:0]
			isPeak := true
			hasLower := false
			for len(stack) > 0 {
				c := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				plateau = append(plateau, c)
				ci, cj := c%g.W, c/g.W
				for _, d := range neighbours {
					ni, nj := ci+d[0], cj+d[1]
					if ni < 0 || ni >= g.W || nj < 0 || nj >= g.H {
						continue
					}
					nidx := nj*g.W + ni
					nv := g.Data[nidx]
					switch {
					case nv > v:
						isPeak = false
					case nv < v:
						hasLower = true
					default:
						if !visited[nidx] {
							visited[nidx] = true
							stack = append(stack, nidx)
						}
					}
				}
			}
			if !isPeak || !hasLower {
				continue
			}
			// Representative: plateau centroid snapped to the member cell
			// nearest to it, keeping the peak on the plateau.
			var cx, cy float64
			for _, c := range plateau {
				cx += float64(c % g.W)
				cy += float64(c / g.W)
			}
			cx /= float64(len(plateau))
			cy /= float64(len(plateau))
			best := plateau[0]
			bestD := math.Inf(1)
			for _, c := range plateau {
				dx, dy := float64(c%g.W)-cx, float64(c/g.W)-cy
				if d := dx*dx + dy*dy; d < bestD {
					bestD, best = d, c
				}
			}
			bi, bj := best%g.W, best/g.W
			peaks = append(peaks, Peak{I: bi, J: bj, XY: g.Center(bi, bj), Value: v})
		}
	}
	sortPeaks(peaks)
	return peaks
}

// neighbourOrder compares cell (i, j), of value v, with its in-grid
// 8-neighbours: whether any is strictly higher, any compares neither
// higher nor lower (equal), and any is strictly lower. It stops at the
// first higher neighbour, the answer that rejects the cell.
func (g *Grid) neighbourOrder(i, j int, v float64) (higher, equal, lower bool) {
	for _, d := range neighbours {
		ni, nj := i+d[0], j+d[1]
		if ni < 0 || ni >= g.W || nj < 0 || nj >= g.H {
			continue
		}
		nv := g.Data[nj*g.W+ni]
		switch {
		case nv > v:
			return true, false, false
		case nv < v:
			lower = true
		default:
			equal = true
		}
	}
	return false, equal, lower
}

func sortPeaks(ps []Peak) {
	// Insertion sort by descending value then ascending (J, I); peak
	// counts are small.
	for i := 1; i < len(ps); i++ {
		p := ps[i]
		j := i - 1
		for j >= 0 && less(p, ps[j]) {
			ps[j+1] = ps[j]
			j--
		}
		ps[j+1] = p
	}
}

func less(a, b Peak) bool {
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	if a.J != b.J {
		return a.J < b.J
	}
	return a.I < b.I
}

// Component is a connected region of cells at or above a threshold — one
// partition of a geo-footprint.
type Component struct {
	Cells  int     // number of member cells
	AreaKm float64 // Cells · Cell²
	// Mass is the sum of the member values, added in row-major order,
	// times Cell².
	Mass  float64
	PeakV float64 // maximum value inside the component
	// Bounding box in cell coordinates, inclusive.
	MinI, MinJ, MaxI, MaxJ int
}

// run is cells lo…hi of row j, a maximal stretch at or above the level.
// parent links it into its partition's union-find tree, rooted at the
// partition's earliest run; part is the partition's index.
type run struct {
	j, lo, hi    int
	parent, part int
}

// Components returns the 8-connected components of {cells >= level},
// largest mass first; partitions of equal mass keep the row-major order
// of their first cells.
//
// One row-major scan finds each row's runs and unions every run with
// the runs of the row above that it touches, diagonally included. A
// union hangs the later of two roots under the earlier, so a partition's
// root is its earliest run, and partitions are numbered in the order of
// their first cells. A pass over the runs in order then sums each
// partition's cells, so Mass adds them in row-major order. The runs are
// the only scratch: nothing is sized by the grid. With a level > 0 no
// cell of 0 belongs to a partition, so only the spans are scanned, and a
// run reaching the end of its row's span ends there.
func (g *Grid) Components(level float64) []Component {
	var runs []run
	above := 0 // the first run of the row above
	for j := 0; j < g.H; j++ {
		first, a := len(runs), above
		lo, hi := g.support(j, level > 0)
		start := -1 // the first cell of the run being scanned, if any
		for k, v := range g.Data[j*g.W+lo : j*g.W+hi] {
			if v >= level {
				if start < 0 {
					start = lo + k
				}
			} else if start >= 0 {
				runs, a = addRun(runs, a, first, j, start, lo+k-1)
				start = -1
			}
		}
		if start >= 0 {
			runs, _ = addRun(runs, a, first, j, start, hi-1)
		}
		above = first
	}
	var comps []Component
	for r := range runs {
		u := &runs[r]
		if u.parent == r {
			u.part = len(comps)
			comps = append(comps, Component{MinI: u.lo, MinJ: u.j, MaxI: u.hi})
		} else {
			// The parent is an earlier run, already given its partition.
			u.part = runs[u.parent].part
		}
		c := &comps[u.part]
		c.Cells += u.hi - u.lo + 1
		c.MinI, c.MaxI, c.MaxJ = min(c.MinI, u.lo), max(c.MaxI, u.hi), u.j
		m, peak := c.Mass, c.PeakV
		for _, v := range g.Data[u.j*g.W+u.lo : u.j*g.W+u.hi+1] {
			m += v
			if v > peak {
				peak = v
			}
		}
		c.Mass, c.PeakV = m, peak
	}
	for k := range comps {
		c := &comps[k]
		c.AreaKm = float64(c.Cells) * g.Cell * g.Cell
		c.Mass *= g.Cell * g.Cell
	}
	// Sort by descending mass.
	for i := 1; i < len(comps); i++ {
		c := comps[i]
		j := i - 1
		for j >= 0 && c.Mass > comps[j].Mass {
			comps[j+1] = comps[j]
			j--
		}
		comps[j+1] = c
	}
	return comps
}

// addRun appends run lo…hi of row j and unions it with the runs of the
// row above that it touches, diagonally included: runs[a:first], ordered
// by column. It returns the runs and the first run above that can touch
// a later run of row j, since a run above that ends left of column lo-1
// touches none.
func addRun(runs []run, a, first, j, lo, hi int) ([]run, int) {
	r := len(runs)
	runs = append(runs, run{j: j, lo: lo, hi: hi, parent: r})
	for a < first && runs[a].hi < lo-1 {
		a++
	}
	for b := a; b < first && runs[b].lo <= hi+1; b++ {
		union(runs, r, b)
	}
	return runs, a
}

// union joins the trees of runs x and y under the earlier of their roots.
func union(runs []run, x, y int) {
	x, y = root(runs, x), root(runs, y)
	if x > y {
		x, y = y, x
	}
	runs[y].parent = x
}

// root returns the root of run x's tree, halving the path on the way.
func root(runs []run, x int) int {
	for runs[x].parent != x {
		runs[x].parent = runs[runs[x].parent].parent
		x = runs[x].parent
	}
	return x
}
