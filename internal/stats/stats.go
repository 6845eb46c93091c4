// Package stats provides the small statistical toolkit the experiments
// need: empirical CDFs, percentiles, rank correlation, a streaming
// quantile sketch and terminal plots.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// checkNaN panics if the sample contains a NaN, naming the caller and
// the offending index. A NaN silently absorbed by a sort-based
// percentile or CDF does not crash — it quietly poisons every
// downstream number (sort.Float64s places NaNs arbitrarily, without a
// trace of where the corruption entered). The experiments' contract is that samples are cleaned at
// ingestion (the pipeline drops non-finite coordinates), so a NaN here
// is a bug upstream and the loudest possible failure is the right one.
func checkNaN(fn string, xs []float64) {
	for i, x := range xs {
		if math.IsNaN(x) {
			panic(fmt.Sprintf("stats: %s: NaN at index %d of %d-point sample", fn, i, len(xs)))
		}
	}
}

// Percentile returns the p-th percentile (0–100) of xs using linear
// interpolation between closest ranks. It returns NaN for an empty sample
// and panics if p is outside [0, 100] or if the sample contains a NaN
// (sort-based rank selection is meaningless over an unordered value).
func Percentile(xs []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v outside [0,100]", p))
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	checkNaN("Percentile", xs)
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF. The input slice is copied. It panics
// if the sample contains a NaN: sort.Float64s places NaNs arbitrarily,
// so a poisoned sample would silently skew every At/Quantile answer
// instead of failing where the bad value entered (see checkNaN).
func NewCDF(xs []float64) *CDF {
	checkNaN("NewCDF", xs)
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x) in [0, 1]. It returns 0 for an empty sample.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the value at cumulative probability q in [0, 1].
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return percentileSorted(c.sorted, q*100)
}

// Points returns (x, P(X<=x)) pairs suitable for plotting — one point per
// distinct sample value, in ascending order.
func (c *CDF) Points() (xs, ps []float64) {
	n := len(c.sorted)
	for i := 0; i < n; {
		j := i
		for j < n && c.sorted[j] == c.sorted[i] {
			j++
		}
		xs = append(xs, c.sorted[i])
		ps = append(ps, float64(j)/float64(n))
		i = j
	}
	return xs, ps
}

// Spearman returns the Spearman rank correlation of two equal-length
// samples, in [-1, 1]. It returns 0 for fewer than 2 points and panics on
// mismatched lengths. Ties receive average ranks.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Spearman length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	rx := ranks(xs)
	ry := ranks(ys)
	// Pearson correlation of the ranks (handles ties correctly).
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += rx[i]
		sy += ry[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var cov, vx, vy float64
	for i := 0; i < n; i++ {
		dx, dy := rx[i]-mx, ry[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// ranks assigns 1-based average ranks.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			out[idx[k]] = avg
		}
		i = j
	}
	return out
}

// ASCIIPlot renders series of (x, y) points as a crude terminal plot, used
// by the experiment CLIs to sketch the paper's figures. Each series is
// drawn with its own rune. Width and height are in character cells.
func ASCIIPlot(width, height int, series map[rune][][2]float64) string {
	if width < 8 || height < 4 || len(series) == 0 {
		return ""
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, pts := range series {
		for _, p := range pts {
			minX = math.Min(minX, p[0])
			maxX = math.Max(maxX, p[0])
			minY = math.Min(minY, p[1])
			maxY = math.Max(maxY, p[1])
		}
	}
	if minX >= maxX {
		maxX = minX + 1
	}
	if minY >= maxY {
		maxY = minY + 1
	}
	cells := make([][]rune, height)
	for i := range cells {
		cells[i] = []rune(strings.Repeat(" ", width))
	}
	marks := make([]rune, 0, len(series))
	for r := range series {
		marks = append(marks, r)
	}
	sort.Slice(marks, func(i, j int) bool { return marks[i] < marks[j] })
	for _, r := range marks {
		for _, p := range series[r] {
			col := int((p[0] - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((p[1]-minY)/(maxY-minY)*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				cells[row][col] = r
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "y: %.3g..%.3g  x: %.3g..%.3g\n", minY, maxY, minX, maxX)
	for _, row := range cells {
		b.WriteString("|")
		b.WriteString(string(row))
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n")
	return b.String()
}
