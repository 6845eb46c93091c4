package experiments

import (
	"fmt"
	"strings"

	"eyeballas/internal/astopo"
	"eyeballas/internal/core"
	"eyeballas/internal/parallel"
)

// MultiScale evaluates the §5 future-work refinement implemented in
// core.MultiScaleFootprint: combining several bandwidths should recover
// more of the published ground truth than the fixed 40 km analysis
// without collapsing to the unreliability of the plain 10 km analysis.
type MultiScale struct {
	NASes int

	// Mean per-AS recall (% of published PoPs matched) and precision
	// (% of discovered PoPs matched) for the three strategies.
	Plain40Recall, Plain40Precision       float64
	Plain10Recall, Plain10Precision       float64
	MultiScaleRecall, MultiScalePrecision float64
	// Mean discovered PoPs per AS for each strategy.
	Plain40PoPs, Plain10PoPs, MultiScalePoPs float64
}

// RunMultiScale executes the comparison over the validation ASes.
func RunMultiScale(env *Env) (*MultiScale, error) {
	var asns []astopo.ASN
	for _, asn := range env.Reference.ASNs() {
		if env.Dataset.AS(asn) != nil {
			asns = append(asns, asn)
		}
	}
	if len(asns) == 0 {
		return nil, fmt.Errorf("experiments: no validation ASes")
	}
	pops40, err := env.pops(env.Dataset, asns, 40)
	if err != nil {
		return nil, err
	}
	pops10, err := env.pops(env.Dataset, asns, 10)
	if err != nil {
		return nil, err
	}
	popsMS := make([][]core.PoP, len(asns))
	err = parallel.ForEach(env.ctx(), 0, asns, func(i int, asn astopo.ASN) error {
		ms, err := core.MultiScaleFootprint(env.World.Gazetteer, env.Dataset.AS(asn).Samples, core.MultiScaleOptions{})
		if err != nil {
			return err
		}
		popsMS[i] = core.MultiScalePoPs(ms)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &MultiScale{NASes: len(asns)}
	n := float64(len(asns))
	for i, asn := range asns {
		ref := env.Reference.Locations(asn)
		m40 := core.MatchPoPs(pops40[i], ref, core.MatchRadiusKm)
		m10 := core.MatchPoPs(pops10[i], ref, core.MatchRadiusKm)
		mMS := core.MatchPoPs(popsMS[i], ref, core.MatchRadiusKm)
		out.Plain40Recall += 100 * m40.RefMatchedFrac() / n
		out.Plain40Precision += 100 * m40.DiscMatchedFrac() / n
		out.Plain10Recall += 100 * m10.RefMatchedFrac() / n
		out.Plain10Precision += 100 * m10.DiscMatchedFrac() / n
		out.MultiScaleRecall += 100 * mMS.RefMatchedFrac() / n
		out.MultiScalePrecision += 100 * mMS.DiscMatchedFrac() / n
		out.Plain40PoPs += float64(m40.NDiscovered) / n
		out.Plain10PoPs += float64(m10.NDiscovered) / n
		out.MultiScalePoPs += float64(mMS.NDiscovered) / n
	}
	return out, nil
}

// Render prints the three-strategy comparison.
func (m *MultiScale) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-scale PoP refinement (§5 future work; %d validation ASes)\n", m.NASes)
	fmt.Fprintf(&b, "  %-22s %10s %10s %10s\n", "strategy", "PoPs/AS", "recall", "precision")
	fmt.Fprintf(&b, "  %-22s %10.2f %9.1f%% %9.1f%%\n", "fixed 40 km", m.Plain40PoPs, m.Plain40Recall, m.Plain40Precision)
	fmt.Fprintf(&b, "  %-22s %10.2f %9.1f%% %9.1f%%\n", "fixed 10 km", m.Plain10PoPs, m.Plain10Recall, m.Plain10Precision)
	fmt.Fprintf(&b, "  %-22s %10.2f %9.1f%% %9.1f%%\n", "multi-scale 10-80 km", m.MultiScalePoPs, m.MultiScaleRecall, m.MultiScalePrecision)
	return b.String()
}
