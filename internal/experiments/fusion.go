package experiments

import (
	"fmt"
	"strings"

	"eyeballas/internal/astopo"
	"eyeballas/internal/core"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/traceroute"
)

// Fusion implements the combination the paper's conclusion (§7)
// advocates: fuse the edge-based user-density view with targeted
// traceroute measurements. Per AS, the fused PoP set is the union of the
// KDE-discovered PoPs and the traceroute-observed PoPs (deduplicated at
// city scale); recall against published lists is compared for the two
// inputs and the fusion.
type Fusion struct {
	NASes int

	KDERecall   float64 // mean per-AS % of published PoPs matched
	TraceRecall float64
	FusedRecall float64
	// FusedPlusRecall adds the full §7 loop: targeted traceroutes aimed
	// at the KDE-discovered PoP cities, whose paths expose additional
	// entry/infrastructure PoPs.
	FusedPlusRecall float64

	KDEPoPs, TracePoPs, FusedPoPs, FusedPlusPoPs float64 // mean per-AS set sizes
}

// RunFusion evaluates the fusion over the ASes present in the target
// dataset, the reference dataset, and the traceroute observations.
func RunFusion(env *Env) (*Fusion, error) {
	tracePoPs := traceroute.PoPs(env.Traces)
	var asns []astopo.ASN
	for _, asn := range env.Reference.ASNs() {
		if env.Dataset.AS(asn) != nil && len(tracePoPs[asn]) > 0 {
			asns = append(asns, asn)
		}
	}
	if len(asns) == 0 {
		return nil, fmt.Errorf("experiments: no ASes common to all three datasets")
	}
	// Footprints first (parallel), so the targeted campaign can aim at
	// the discovered PoP cities.
	footprints, err := env.pops(env.Dataset, asns, 40)
	if err != nil {
		return nil, err
	}

	// The §7 targeted campaign: probe each AS at its discovered cities.
	targets := make(map[astopo.ASN][]geo.Point, len(asns))
	for i, asn := range asns {
		for _, p := range footprints[i] {
			targets[asn] = append(targets[asn], p.City.Loc)
		}
	}
	targetedTraces, err := traceroute.Targeted(env.World, env.Routing, targets, 8)
	if err != nil {
		return nil, err
	}
	targetedPoPs := traceroute.PoPs(targetedTraces)

	out := &Fusion{NASes: len(asns)}
	n := float64(len(asns))
	for i, asn := range asns {
		ref := env.Reference.Locations(asn)
		observed := tracePoPs[asn]
		fused := fusePoPs(footprints[i], observed, env.World.Gazetteer)
		fusedPlus := fusePoPs(fused, targetedPoPs[asn], env.World.Gazetteer)

		mKDE := core.MatchPoPs(footprints[i], ref, core.MatchRadiusKm)
		trMatched := matchPoints(observed, ref, core.MatchRadiusKm)
		mFu := core.MatchPoPs(fused, ref, core.MatchRadiusKm)
		mFuPlus := core.MatchPoPs(fusedPlus, ref, core.MatchRadiusKm)

		out.KDERecall += 100 * mKDE.RefMatchedFrac() / n
		out.TraceRecall += 100 * float64(trMatched) / float64(len(ref)) / n
		out.FusedRecall += 100 * mFu.RefMatchedFrac() / n
		out.FusedPlusRecall += 100 * mFuPlus.RefMatchedFrac() / n
		out.KDEPoPs += float64(len(footprints[i])) / n
		out.TracePoPs += float64(len(observed)) / n
		out.FusedPoPs += float64(len(fused)) / n
		out.FusedPlusPoPs += float64(len(fusedPlus)) / n
	}
	return out, nil
}

// fusePoPs unions KDE PoPs with traceroute-observed locations, adding a
// traceroute point only when it is not already within the match radius of
// a KDE PoP; added points are city-mapped like KDE peaks.
func fusePoPs(kde []core.PoP, observed []geo.Point, gaz *gazetteer.Gazetteer) []core.PoP {
	fused := append([]core.PoP(nil), kde...)
	for _, pt := range observed {
		dup := false
		for _, p := range fused {
			if geo.DistanceKm(pt, p.City.Loc) <= core.MatchRadiusKm ||
				geo.DistanceKm(pt, p.PeakLoc) <= core.MatchRadiusKm {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		city, ok := gaz.MostPopulousWithin(pt, core.MatchRadiusKm)
		if !ok {
			continue
		}
		fused = append(fused, core.PoP{City: city, PeakLoc: pt})
	}
	return fused
}

func matchPoints(pts, ref []geo.Point, radiusKm float64) int {
	matched := 0
	for _, r := range ref {
		for _, p := range pts {
			if geo.DistanceKm(r, p) <= radiusKm {
				matched++
				break
			}
		}
	}
	return matched
}

// Render prints the three-way recall comparison.
func (f *Fusion) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Edge+traceroute fusion (§7; %d ASes in all three datasets)\n", f.NASes)
	fmt.Fprintf(&b, "  %-18s %10s %10s\n", "source", "PoPs/AS", "recall")
	fmt.Fprintf(&b, "  %-18s %10.2f %9.1f%%\n", "KDE (40 km)", f.KDEPoPs, f.KDERecall)
	fmt.Fprintf(&b, "  %-18s %10.2f %9.1f%%\n", "traceroute", f.TracePoPs, f.TraceRecall)
	fmt.Fprintf(&b, "  %-18s %10.2f %9.1f%%\n", "fused", f.FusedPoPs, f.FusedRecall)
	fmt.Fprintf(&b, "  %-18s %10.2f %9.1f%%  (+ targeted probes at KDE cities)\n",
		"fused+targeted", f.FusedPlusPoPs, f.FusedPlusRecall)
	return b.String()
}
