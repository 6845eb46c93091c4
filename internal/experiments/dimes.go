package experiments

import (
	"fmt"
	"strings"

	"eyeballas/internal/astopo"
	"eyeballas/internal/core"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/traceroute"
)

// DIMES reproduces the paper's §5 comparison with the traceroute-based
// DIMES PoP dataset: over the eyeball ASes common to both datasets
// (restricted to EU and NA, as the paper does), compare PoPs-per-AS and
// check how often the KDE-discovered set is a superset of the
// traceroute-observed set.
type DIMES struct {
	CommonASes     int
	OurMeanPoPs    float64
	DIMESMeanPoPs  float64
	SupersetFrac   float64 // fraction of common ASes where ours ⊇ DIMES
	BandwidthKm    float64
	perASOur       []int
	perASTraceOnly []int
}

// RunDIMES executes the comparison at the paper's 40 km bandwidth.
func RunDIMES(env *Env) (*DIMES, error) {
	tracePoPs := traceroute.PoPs(env.Traces)
	d := &DIMES{BandwidthKm: 40}
	// Common ASes: EU/NA eyeballs in the target dataset that traceroute
	// also observed.
	var common []astopo.ASN
	for _, rec := range env.Dataset.Records() {
		if rec.Region != gazetteer.EU && rec.Region != gazetteer.NA {
			continue
		}
		if len(tracePoPs[rec.ASN]) == 0 {
			continue
		}
		common = append(common, rec.ASN)
	}
	if len(common) == 0 {
		return nil, fmt.Errorf("experiments: no common ASes between the datasets")
	}
	pops, err := env.pops(env.Dataset, common, d.BandwidthKm)
	if err != nil {
		return nil, err
	}
	d.CommonASes = len(common)
	var ourTotal, traceTotal, supersets int
	for i, asn := range common {
		observed := tracePoPs[asn]
		ourTotal += len(pops[i])
		traceTotal += len(observed)
		if core.MatchPoPs(pops[i], observed, core.MatchRadiusKm).Superset() {
			supersets++
		}
		d.perASOur = append(d.perASOur, len(pops[i]))
		d.perASTraceOnly = append(d.perASTraceOnly, len(observed))
	}
	d.OurMeanPoPs = float64(ourTotal) / float64(d.CommonASes)
	d.DIMESMeanPoPs = float64(traceTotal) / float64(d.CommonASes)
	d.SupersetFrac = float64(supersets) / float64(d.CommonASes)
	return d, nil
}

// Render prints the comparison in the paper's terms.
func (d *DIMES) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5 DIMES comparison (bandwidth %.0f km, %d common EU/NA eyeball ASes)\n",
		d.BandwidthKm, d.CommonASes)
	fmt.Fprintf(&b, "  KDE-discovered PoPs per AS:       %.2f   (paper: 7.14)\n", d.OurMeanPoPs)
	fmt.Fprintf(&b, "  traceroute-observed PoPs per AS:  %.2f   (paper: 1.54)\n", d.DIMESMeanPoPs)
	fmt.Fprintf(&b, "  ASes where KDE ⊇ traceroute:      %.0f%%  (paper: 80%%)\n", 100*d.SupersetFrac)
	return b.String()
}
