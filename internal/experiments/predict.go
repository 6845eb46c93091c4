package experiments

import (
	"fmt"
	"strings"

	"eyeballas/internal/astopo"
	"eyeballas/internal/core"
	"eyeballas/internal/geo"
)

// Predict quantifies the question the paper poses and leaves open (§1:
// "how to leverage the geo-properties of an eyeball AS to predict likely
// scenarios of how the AS connects to the rest of the Internet is left
// for future work"): how well does a purely geography-based predictor
// anticipate real connectivity?
//
// The predictor is the natural one the §6 case study articulates:
//
//   - Upstream count: a city-level AS should have 1–2 upstreams, a
//     state-level 2–3, a country-level 3–5.
//   - IXP membership: an AS joins exchanges located in its footprint's
//     PoP cities (local peering), and no others.
//
// The §6 finding generalized: both predictions should be measurably poor
// — eyeballs are richer upstream and peer at remote exchanges.
type Predict struct {
	NASes int

	// Upstream-count prediction.
	UpstreamWithinRange float64 // fraction of ASes whose true count falls in the predicted range
	UpstreamUnderCount  float64 // fraction of ASes with MORE upstreams than predicted
	MeanTrueUpstreams   float64
	MeanPredictedMax    float64

	// IXP-membership prediction.
	IXPPrecision float64 // predicted memberships that are real
	IXPRecall    float64 // real memberships that were predicted
	RemoteShare  float64 // fraction of real memberships at exchanges away from any PoP city
}

// upstreamRange returns the geography-based prediction for a level.
func upstreamRange(l astopo.Level) (lo, hi int) {
	switch l {
	case astopo.LevelCity:
		return 1, 2
	case astopo.LevelState:
		return 2, 3
	default:
		return 3, 5
	}
}

// RunPredict evaluates the predictor over every eyeball AS in the target
// dataset.
func RunPredict(env *Env) (*Predict, error) {
	asns := env.Dataset.Order
	if len(asns) == 0 {
		return nil, fmt.Errorf("experiments: empty target dataset")
	}
	pops, err := env.pops(env.Dataset, asns, 40)
	if err != nil {
		return nil, err
	}
	near := func(ix *astopo.IXP, pops []core.PoP) bool {
		for _, p := range pops {
			if geo.DistanceKm(ix.City.Loc, p.City.Loc) <= core.MatchRadiusKm {
				return true
			}
		}
		return false
	}
	out := &Predict{NASes: len(asns)}
	ixps := env.World.IXPs()
	var predIXPTotal, correctIXPTotal, trueIXPTotal, remoteTotal int
	for i, asn := range asns {
		// Upstreams.
		lo, hi := upstreamRange(env.Dataset.AS(asn).Class.Level)
		trueUp := len(env.World.Providers(asn))
		if trueUp >= lo && trueUp <= hi {
			out.UpstreamWithinRange++
		}
		if trueUp > hi {
			out.UpstreamUnderCount++
		}
		out.MeanTrueUpstreams += float64(trueUp)
		out.MeanPredictedMax += float64(hi)

		// IXPs: predicted = exchanges within the match radius of a
		// discovered PoP city; a real membership elsewhere is remote.
		actual := map[astopo.IXPID]bool{}
		for _, id := range env.IXPData.IXPsOf(asn) {
			actual[id] = true
		}
		for _, ix := range ixps {
			if near(ix, pops[i]) {
				predIXPTotal++
				if actual[ix.ID] {
					correctIXPTotal++
				}
			}
		}
		trueIXPTotal += len(actual)
		for id := range actual {
			if !near(env.World.IXP(id), pops[i]) {
				remoteTotal++
			}
		}
	}
	n := float64(out.NASes)
	out.UpstreamWithinRange /= n
	out.UpstreamUnderCount /= n
	out.MeanTrueUpstreams /= n
	out.MeanPredictedMax /= n
	if predIXPTotal > 0 {
		out.IXPPrecision = float64(correctIXPTotal) / float64(predIXPTotal)
	}
	if trueIXPTotal > 0 {
		out.IXPRecall = float64(correctIXPTotal) / float64(trueIXPTotal)
		out.RemoteShare = float64(remoteTotal) / float64(trueIXPTotal)
	}
	return out, nil
}

// Render prints the predictor's scorecard.
func (p *Predict) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Geography→connectivity prediction (§1 open question; %d eyeball ASes)\n", p.NASes)
	fmt.Fprintf(&b, "  upstream count: true mean %.2f vs predicted max %.2f\n", p.MeanTrueUpstreams, p.MeanPredictedMax)
	fmt.Fprintf(&b, "    within predicted range: %.0f%%; richer than predicted: %.0f%%\n",
		100*p.UpstreamWithinRange, 100*p.UpstreamUnderCount)
	fmt.Fprintf(&b, "  IXP membership (predict: exchanges at footprint PoP cities):\n")
	fmt.Fprintf(&b, "    precision %.0f%%, recall %.0f%%\n", 100*p.IXPPrecision, 100*p.IXPRecall)
	fmt.Fprintf(&b, "    %.0f%% of real memberships are at exchanges away from every PoP city (remote peering)\n",
		100*p.RemoteShare)
	return b.String()
}
