package experiments

import (
	"fmt"
	"strings"

	"eyeballas/internal/astopo"
	"eyeballas/internal/core"
	"eyeballas/internal/geo"
	"eyeballas/internal/stats"
)

// Density validates the paper's §4.2 claim that the per-PoP density
// values quantify "the level of presence of an AS in that city": for
// every multi-PoP eyeball AS, the discovered density of each PoP is
// rank-correlated against the ground-truth customer share of the matching
// PoP city. A high mean Spearman correlation means the numbers in lists
// like "[Milan (.130), Rome (.122), …]" measure something real.
type Density struct {
	NASes        int     // multi-PoP ASes evaluated
	MeanSpearman float64 // mean per-AS rank correlation
	FracStrong   float64 // fraction of ASes with ρ >= 0.6
	PairsScored  int     // total (PoP, truth) pairs matched
}

// RunDensity executes the study at the paper's default bandwidth.
func RunDensity(env *Env) (*Density, error) {
	// Rank correlation needs at least 3 points.
	var asns []astopo.ASN
	for _, asn := range env.Dataset.Order {
		if a := env.World.AS(asn); a != nil && len(a.UserPoPs()) >= 3 {
			asns = append(asns, asn)
		}
	}
	pops, err := env.pops(env.Dataset, asns, 40)
	if err != nil {
		return nil, err
	}
	out := &Density{}
	for i, asn := range asns {
		truePoPs := env.World.AS(asn).UserPoPs()
		var measured, truth []float64
		for _, p := range pops[i] {
			// Match this discovered PoP to a ground-truth user PoP city.
			for _, tp := range truePoPs {
				if geo.DistanceKm(p.City.Loc, tp.City.Loc) <= core.MatchRadiusKm {
					measured = append(measured, p.Density)
					truth = append(truth, tp.Share)
					break
				}
			}
		}
		if len(measured) < 3 {
			continue
		}
		rho := stats.Spearman(measured, truth)
		out.NASes++
		out.MeanSpearman += rho
		out.PairsScored += len(measured)
		if rho >= 0.6 {
			out.FracStrong++
		}
	}
	if out.NASes == 0 {
		return nil, fmt.Errorf("experiments: no multi-PoP ASes to score")
	}
	out.MeanSpearman /= float64(out.NASes)
	out.FracStrong /= float64(out.NASes)
	return out, nil
}

// Render prints the correlation summary.
func (d *Density) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PoP density vs ground-truth presence (§4.2 claim; %d multi-PoP ASes, %d matched pairs)\n",
		d.NASes, d.PairsScored)
	fmt.Fprintf(&b, "  mean per-AS Spearman correlation: %.3f\n", d.MeanSpearman)
	fmt.Fprintf(&b, "  ASes with rho >= 0.6:             %.0f%%\n", 100*d.FracStrong)
	return b.String()
}
