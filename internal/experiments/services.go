package experiments

import (
	"fmt"
	"strings"

	"eyeballas/internal/astopo"
)

// Services realizes the paper's §3/§7 claim that the geo-footprint
// "provides useful information about the services offered (e.g.,
// residential vs. retail)" and "business-specific features (e.g., serving
// residential vs. business customers)": a simple footprint-based
// classifier separates residential access ISPs from content/enterprise
// networks, scored against the generator's ground-truth Kind.
//
// The classifier uses only measurement-side features:
//
//   - usable peer count (residential ISPs serve far more users);
//   - PoP count of the footprint (access networks spread across cities);
//   - the dominant PoP's density share (enterprises concentrate in one
//     metro).
type Services struct {
	NASes       int
	Residential int // ground-truth residential eyeballs evaluated
	Content     int // ground-truth content/enterprise ASes evaluated

	Accuracy  float64 // overall fraction classified correctly
	Precision float64 // of predicted content ASes, fraction truly content
	Recall    float64 // of true content ASes, fraction predicted content
	// BalancedAccuracy averages the per-class recalls; a
	// majority-class guesser scores 0.5 regardless of class imbalance,
	// so values well above 0.5 demonstrate real footprint signal.
	BalancedAccuracy float64
}

// serviceThresholds separate the two classes; deliberately simple and
// interpretable rather than tuned.
const (
	svcMaxContentPeers  = 600 // content ASes have few P2P users
	svcMaxContentPoPs   = 2   // ...in at most a couple of metros
	svcMinConcentration = 0.3 // ...with a strongly dominant metro
)

// classifyService predicts true for "content/enterprise".
func classifyService(nPeers, nPoPs int, topDensity float64) bool {
	if nPeers > svcMaxContentPeers {
		return false
	}
	if nPoPs > svcMaxContentPoPs {
		return false
	}
	return topDensity >= svcMinConcentration
}

// RunServices executes the classification over every AS in the target
// dataset with a ground-truth kind of eyeball or content.
func RunServices(env *Env) (*Services, error) {
	var asns []astopo.ASN
	for _, asn := range env.Dataset.Order {
		if a := env.World.AS(asn); a != nil && (a.Kind == astopo.KindEyeball || a.Kind == astopo.KindContent) {
			asns = append(asns, asn)
		}
	}
	pops, err := env.pops(env.Dataset, asns, 40)
	if err != nil {
		return nil, err
	}
	out := &Services{}
	var tp, fp_, fn, correct int
	for i, asn := range asns {
		top := 0.0
		if len(pops[i]) > 0 {
			top = pops[i][0].Density
		}
		isContent := env.World.AS(asn).Kind == astopo.KindContent
		predContent := classifyService(len(env.Dataset.AS(asn).Samples), len(pops[i]), top)
		out.NASes++
		if isContent {
			out.Content++
		} else {
			out.Residential++
		}
		if predContent == isContent {
			correct++
		}
		switch {
		case predContent && isContent:
			tp++
		case predContent && !isContent:
			fp_++
		case !predContent && isContent:
			fn++
		}
	}
	if out.NASes == 0 {
		return nil, fmt.Errorf("experiments: no classifiable ASes")
	}
	out.Accuracy = float64(correct) / float64(out.NASes)
	if tp+fp_ > 0 {
		out.Precision = float64(tp) / float64(tp+fp_)
	}
	if tp+fn > 0 {
		out.Recall = float64(tp) / float64(tp+fn)
	}
	// Residential recall = TN / (TN + FP).
	tn := out.Residential - fp_
	if out.Residential > 0 && out.Content > 0 {
		out.BalancedAccuracy = (out.Recall + float64(tn)/float64(out.Residential)) / 2
	}
	return out, nil
}

// Render prints the classification scorecard.
func (s *Services) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Residential vs content classification (§3/§7 claim; %d ASes: %d residential, %d content)\n",
		s.NASes, s.Residential, s.Content)
	fmt.Fprintf(&b, "  accuracy %.0f%% (balanced %.0f%%; chance = 50%%); content precision %.0f%%, recall %.0f%%\n",
		100*s.Accuracy, 100*s.BalancedAccuracy, 100*s.Precision, 100*s.Recall)
	fmt.Fprintf(&b, "  (features: peer count, footprint PoP count, dominant-metro concentration)\n")
	return b.String()
}
