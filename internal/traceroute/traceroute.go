// Package traceroute simulates vantage-point-limited traceroute
// measurement over the synthetic world and implements a DIMES-style PoP
// extractor — the paper's §5 comparison baseline (Shavitt & Zilberman,
// "A Structural Approach for PoP Geo-Location").
//
// The simulation reproduces the structural reason DIMES sees so few PoPs
// per eyeball AS (1.54 on average vs the paper's 7.14): probes enter an
// eyeball AS through whichever PoP is closest to the upstream hop, and a
// handful of vantage points exercise only a handful of entry PoPs. The
// blind campaign's size is fixed: campaignVantages (8) vantage ASes,
// campaignProbesPerAS (4) probes per destination.
package traceroute

import (
	"fmt"
	"sort"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
)

// Hop is one AS-level traceroute hop with the geolocation of the router
// interface observed there.
type Hop struct {
	ASN  astopo.ASN
	City gazetteer.City
}

// Trace is one simulated traceroute.
type Trace struct {
	From, To astopo.ASN
	Hops     []Hop
}

// The blind campaign's size: DIMES-style agent deployments are small.
const (
	// campaignVantages is how many vantage-point ASes launch probes.
	campaignVantages int = 8
	// campaignProbesPerAS is how many probes hit each destination AS.
	campaignProbesPerAS int = 4
)

// pickVantages returns the first n eyeball ASes in creation order.
func pickVantages(w *astopo.World, n int) ([]*astopo.AS, error) {
	var vantages []*astopo.AS
	for _, a := range w.Eyeballs() {
		vantages = append(vantages, a)
		if len(vantages) == n {
			break
		}
	}
	if len(vantages) == 0 {
		return nil, fmt.Errorf("traceroute: world has no eyeball ASes")
	}
	return vantages, nil
}

// Simulate runs the blind campaign against every AS with customers (the
// eyeball population). Vantage ASes are chosen deterministically: the
// first eyeballs in creation order, which mirrors the volunteer-hosted
// agents of DIMES. The campaign draws no randomness.
func Simulate(w *astopo.World, routing *bgp.Routing) ([]Trace, error) {
	vantages, err := pickVantages(w, campaignVantages)
	if err != nil {
		return nil, err
	}

	// Each probe targets an end user of the destination AS, but only the
	// AS's entry PoP answers: access-network hops between the entry PoP
	// and the user's home are the silent last mile — the structural
	// reason traceroute-based PoP inference undercounts eyeball PoPs
	// (§5).
	var traces []Trace
	for _, dst := range w.ASes() {
		if dst.Customers <= 0 {
			continue
		}
		for t := 0; t < campaignProbesPerAS; t++ {
			v := vantages[(t+int(dst.ASN))%len(vantages)]
			path := routing.Path(v.ASN, dst.ASN)
			if path == nil {
				continue
			}
			traces = append(traces, buildTrace(w, path))
		}
	}
	return traces, nil
}

// buildTrace walks an AS path choosing, in each AS, the PoP nearest the
// previous hop's location (hot-potato-like entry).
func buildTrace(w *astopo.World, path []astopo.ASN) Trace {
	tr := Trace{From: path[0], To: path[len(path)-1]}
	cur := w.AS(path[0]).PoPs[0].City
	for _, asn := range path {
		city := nearestPoPCity(w.AS(asn), cur.Loc)
		tr.Hops = append(tr.Hops, Hop{ASN: asn, City: city})
		cur = city
	}
	return tr
}

func nearestPoPCity(a *astopo.AS, from geo.Point) gazetteer.City {
	best := a.PoPs[0].City
	bestD := geo.DistanceKm(from, best.Loc)
	for _, p := range a.PoPs[1:] {
		if d := geo.DistanceKm(from, p.City.Loc); d < bestD {
			best, bestD = p.City, d
		}
	}
	return best
}

// Targeted runs the measurement §7 proposes: tracerouting *towards the
// edge*, aimed at specific locations inside specific ASes (typically the
// PoP cities a KDE footprint just discovered). Unlike the blind campaign,
// a targeted probe is answered by the destination AS's PoP nearest the
// probed location — edge-cooperative measurement (think: a user-hosted
// probe, or an RTT-confirmed last-hop) exposes the home PoP that blind
// probing cannot see.
//
// targets maps each destination AS to the locations to probe. The
// returned traces can be fed to PoPs like any others.
func Targeted(w *astopo.World, routing *bgp.Routing, targets map[astopo.ASN][]geo.Point, vantages int) ([]Trace, error) {
	if vantages < 1 {
		return nil, fmt.Errorf("traceroute: vantages must be >= 1")
	}
	vantageASes, err := pickVantages(w, vantages)
	if err != nil {
		return nil, err
	}
	// Deterministic iteration over targets.
	asns := make([]astopo.ASN, 0, len(targets))
	for asn := range targets {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })

	var traces []Trace
	for _, asn := range asns {
		dst := w.AS(asn)
		if dst == nil {
			return nil, fmt.Errorf("traceroute: unknown target AS %d", asn)
		}
		for t, loc := range targets[asn] {
			v := vantageASes[(t+int(asn))%len(vantageASes)]
			path := routing.Path(v.ASN, asn)
			if path == nil {
				continue
			}
			tr := buildTrace(w, path)
			// The targeted probe's final answer comes from the PoP
			// serving the probed location.
			home := nearestPoPCity(dst, loc)
			last := tr.Hops[len(tr.Hops)-1]
			if last.City.Name != home.Name || last.City.Country != home.Country {
				tr.Hops = append(tr.Hops, Hop{ASN: asn, City: home})
			}
			traces = append(traces, tr)
		}
	}
	return traces, nil
}

// PoPs extracts DIMES-style PoP locations per AS: the distinct cities at
// which an AS's interfaces were observed across all traces.
func PoPs(traces []Trace) map[astopo.ASN][]geo.Point {
	seen := map[astopo.ASN]map[string]geo.Point{}
	for _, tr := range traces {
		for _, h := range tr.Hops {
			if seen[h.ASN] == nil {
				seen[h.ASN] = map[string]geo.Point{}
			}
			seen[h.ASN][h.City.Name+"/"+h.City.Country] = h.City.Loc
		}
	}
	out := make(map[astopo.ASN][]geo.Point, len(seen))
	for asn, cities := range seen {
		keys := make([]string, 0, len(cities))
		for k := range cities {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out[asn] = append(out[asn], cities[k])
		}
	}
	return out
}

// MeanPoPsPerAS averages the per-AS PoP counts over the given AS set.
func MeanPoPsPerAS(pops map[astopo.ASN][]geo.Point, over []astopo.ASN) float64 {
	if len(over) == 0 {
		return 0
	}
	total := 0
	for _, a := range over {
		total += len(pops[a])
	}
	return float64(total) / float64(len(over))
}
