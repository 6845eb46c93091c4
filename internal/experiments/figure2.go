package experiments

import (
	"fmt"
	"sort"
	"strings"

	"eyeballas/internal/astopo"
	"eyeballas/internal/core"
	"eyeballas/internal/stats"
)

// Figure2 reproduces the paper's §5 validation against published PoP
// lists: for every AS present in both the target dataset and the
// reference dataset, the discovered PoPs are matched against the
// published entries at several bandwidths.
//
// Figure 2(a) is the CDF over ASes of the percentage of published
// (ground-truth) PoPs the technique matched; Figure 2(b) is the CDF of
// the percentage of discovered PoPs that match a published PoP.
type Figure2 struct {
	Bandwidths []float64
	ASNs       []astopo.ASN

	// Per-bandwidth, per-AS matched percentages (same order as ASNs).
	RefMatchedPct  map[float64][]float64 // Figure 2(a) sample set
	DiscMatchedPct map[float64][]float64 // Figure 2(b) sample set

	// §5 scalar statistics.
	MeanDiscovered   map[float64]float64 // mean discovered PoPs/AS per bandwidth
	PerfectMatchFrac map[float64]float64 // fraction of ASes with 100% in 2(b)
	MeanReference    float64             // mean published-list length
}

// Figure2Bandwidths are the paper's three curves.
var Figure2Bandwidths = []float64{10, 40, 80}

// RunFigure2 executes the validation.
func RunFigure2(env *Env, bandwidths []float64) (*Figure2, error) {
	if len(bandwidths) == 0 {
		bandwidths = Figure2Bandwidths
	}
	f := &Figure2{
		Bandwidths:       bandwidths,
		RefMatchedPct:    make(map[float64][]float64),
		DiscMatchedPct:   make(map[float64][]float64),
		MeanDiscovered:   make(map[float64]float64),
		PerfectMatchFrac: make(map[float64]float64),
	}
	for _, asn := range env.Reference.ASNs() {
		if env.Dataset.AS(asn) != nil {
			f.ASNs = append(f.ASNs, asn)
		}
	}
	sort.Slice(f.ASNs, func(i, j int) bool { return f.ASNs[i] < f.ASNs[j] })
	if len(f.ASNs) == 0 {
		return nil, fmt.Errorf("experiments: no AS is in both the target and reference datasets")
	}

	refTotal := 0
	for _, asn := range f.ASNs {
		refTotal += len(env.Reference.Lists[asn])
	}
	f.MeanReference = float64(refTotal) / float64(len(f.ASNs))

	for _, bw := range bandwidths {
		pops, err := env.pops(env.Dataset, f.ASNs, bw)
		if err != nil {
			return nil, err
		}
		totalDisc := 0
		perfect := 0
		for i, asn := range f.ASNs {
			m := core.MatchPoPs(pops[i], env.Reference.Locations(asn), core.MatchRadiusKm)
			f.RefMatchedPct[bw] = append(f.RefMatchedPct[bw], 100*m.RefMatchedFrac())
			f.DiscMatchedPct[bw] = append(f.DiscMatchedPct[bw], 100*m.DiscMatchedFrac())
			totalDisc += m.NDiscovered
			if m.NDiscovered > 0 && m.DiscMatched == m.NDiscovered {
				perfect++
			}
		}
		f.MeanDiscovered[bw] = float64(totalDisc) / float64(len(f.ASNs))
		f.PerfectMatchFrac[bw] = float64(perfect) / float64(len(f.ASNs))
	}
	return f, nil
}

// Render prints both panels as CDF tables plus ASCII plots, with the §5
// scalar statistics.
func (f *Figure2) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: validation against published PoP lists (%d ASes, mean list %.1f entries)\n",
		len(f.ASNs), f.MeanReference)
	fmt.Fprintf(&b, "\n%-14s", "bandwidth")
	for _, bw := range f.Bandwidths {
		fmt.Fprintf(&b, "%10.0fkm", bw)
	}
	fmt.Fprintf(&b, "\n%-14s", "mean PoPs/AS")
	for _, bw := range f.Bandwidths {
		fmt.Fprintf(&b, "%12.2f", f.MeanDiscovered[bw])
	}
	fmt.Fprintf(&b, "\n%-14s", "perfect-match")
	for _, bw := range f.Bandwidths {
		fmt.Fprintf(&b, "%11.0f%%", 100*f.PerfectMatchFrac[bw])
	}
	b.WriteString("\n")

	b.WriteString("\n(a) CDF of % ground-truth PoPs matched\n")
	b.WriteString(renderCDFPanel(f.Bandwidths, f.RefMatchedPct))
	b.WriteString("\n(b) CDF of % discovered PoPs matched\n")
	b.WriteString(renderCDFPanel(f.Bandwidths, f.DiscMatchedPct))
	return b.String()
}

func renderCDFPanel(bandwidths []float64, data map[float64][]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "matched%")
	probe := []float64{0, 20, 40, 60, 80, 99.9}
	for _, p := range probe {
		fmt.Fprintf(&b, "%8.0f", p)
	}
	b.WriteString("\n")
	series := map[rune][][2]float64{}
	marks := []rune{'1', '4', '8'}
	for i, bw := range bandwidths {
		cdf := stats.NewCDF(data[bw])
		fmt.Fprintf(&b, "bw=%-6.0f", bw)
		for _, p := range probe {
			fmt.Fprintf(&b, "%7.0f%%", 100*cdf.At(p))
		}
		b.WriteString("\n")
		if i < len(marks) {
			xs, ps := cdf.Points()
			var pts [][2]float64
			for j := range xs {
				pts = append(pts, [2]float64{xs[j], 100 * ps[j]})
			}
			series[marks[i]] = pts
		}
	}
	b.WriteString(stats.ASCIIPlot(60, 12, series))
	return b.String()
}

// CSV emits asn,bandwidth,ref_matched_pct,disc_matched_pct rows.
func (f *Figure2) CSV() string {
	var b strings.Builder
	b.WriteString("asn,bandwidth_km,ref_matched_pct,disc_matched_pct\n")
	for _, bw := range f.Bandwidths {
		for i, asn := range f.ASNs {
			fmt.Fprintf(&b, "%d,%.0f,%.2f,%.2f\n", asn, bw, f.RefMatchedPct[bw][i], f.DiscMatchedPct[bw][i])
		}
	}
	return b.String()
}
