package experiments

import (
	"fmt"
	"strings"

	"eyeballas/internal/astopo"
	"eyeballas/internal/core"
	"eyeballas/internal/rng"
)

// PeerGeo tests the paper's §1 motivation quantitatively: peering
// contracts demand geographic overlap, so AS pairs that actually peer
// should overlap geographically far more than random co-regional pairs.
// Both sides are measured from footprints inferred by the §3–§4 method —
// the experiment is exactly the application the paper envisions for its
// technique.
type PeerGeo struct {
	PeerPairs    int
	ControlPairs int

	// Mean measured-footprint overlap for peering pairs vs the random
	// same-region control.
	PeerShared    float64
	ControlShared float64
	PeerJaccard   float64
	ControlJacc   float64
	// Fraction of pairs with at least one overlapping PoP city.
	PeerAnyOverlap    float64
	ControlAnyOverlap float64
}

// RunPeerGeo executes the study.
func RunPeerGeo(env *Env) (*PeerGeo, error) {
	inDataset := func(a astopo.ASN) bool { return env.Dataset.AS(a) != nil }

	// Peering pairs with both sides in the target dataset.
	type pair struct{ a, b astopo.ASN }
	var peers []pair
	seen := map[pair]bool{}
	for _, p := range env.World.Peerings() {
		if !inDataset(p.A) || !inDataset(p.B) {
			continue
		}
		key := pair{p.A, p.B}
		if !seen[key] {
			seen[key] = true
			peers = append(peers, key)
		}
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("experiments: no peering pairs inside the target dataset")
	}

	// Control: random same-region pairs that do NOT peer.
	src := rng.New(env.Seed).Split("peergeo")
	recs := env.Dataset.Records()
	isPeer := func(a, b astopo.ASN) bool {
		if a > b {
			a, b = b, a
		}
		return seen[pair{a, b}]
	}
	var control []pair
	for tries := 0; len(control) < len(peers) && tries < 50*len(peers); tries++ {
		ra := recs[src.Intn(len(recs))]
		rb := recs[src.Intn(len(recs))]
		if ra.ASN == rb.ASN || ra.Region != rb.Region || isPeer(ra.ASN, rb.ASN) {
			continue
		}
		control = append(control, pair{ra.ASN, rb.ASN})
	}
	if len(control) == 0 {
		return nil, fmt.Errorf("experiments: could not sample control pairs")
	}

	pops, err := env.pops(env.Dataset, env.Dataset.Order, 40)
	if err != nil {
		return nil, err
	}
	popsOf := make(map[astopo.ASN][]core.PoP, len(pops))
	for i, asn := range env.Dataset.Order {
		popsOf[asn] = pops[i]
	}
	score := func(pairs []pair) (shared, jacc, anyOverlap float64, n int) {
		for _, p := range pairs {
			fa, fb := popsOf[p.a], popsOf[p.b]
			if fa == nil || fb == nil {
				continue
			}
			o := core.FootprintOverlap(fa, fb, core.MatchRadiusKm)
			shared += float64(o.Shared)
			jacc += o.Jaccard
			if o.Shared > 0 {
				anyOverlap++
			}
			n++
		}
		if n > 0 {
			shared /= float64(n)
			jacc /= float64(n)
			anyOverlap /= float64(n)
		}
		return shared, jacc, anyOverlap, n
	}

	out := &PeerGeo{}
	out.PeerShared, out.PeerJaccard, out.PeerAnyOverlap, out.PeerPairs = score(peers)
	out.ControlShared, out.ControlJacc, out.ControlAnyOverlap, out.ControlPairs = score(control)
	return out, nil
}

// Render prints the peering-vs-control comparison.
func (p *PeerGeo) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Peering geography (§1 motivation; %d peering pairs vs %d same-region control pairs)\n",
		p.PeerPairs, p.ControlPairs)
	fmt.Fprintf(&b, "  %-22s %14s %10s %14s\n", "pair set", "shared PoPs", "Jaccard", "any overlap")
	fmt.Fprintf(&b, "  %-22s %14.2f %10.3f %13.0f%%\n", "peering", p.PeerShared, p.PeerJaccard, 100*p.PeerAnyOverlap)
	fmt.Fprintf(&b, "  %-22s %14.2f %10.3f %13.0f%%\n", "random same-region", p.ControlShared, p.ControlJacc, 100*p.ControlAnyOverlap)
	return b.String()
}
