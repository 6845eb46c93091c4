package core

import (
	"eyeballas/internal/astopo"
	"eyeballas/internal/gazetteer"
)

// ContainmentThreshold is the paper's §2 rule: an AS is classified by the
// smallest geographical region containing a large majority (>95%) of its
// peers.
const ContainmentThreshold = 0.95

// Classification describes an AS's inferred geographic scope.
type Classification struct {
	Level astopo.Level
	// Place names the dominant region at the chosen level: the city,
	// state, country, or continental region label.
	Place string
	// Share is the fraction of samples inside the dominant region at the
	// chosen level.
	Share float64
}

// ClassifyLevel applies the §2 rule to the database-reported labels of an
// AS's samples. Samples without a city label never reach this point (the
// pipeline drops them). It counts samples per label tuple first and folds
// those counts into each level's keys, so it builds strings per distinct
// tuple, not per sample.
func ClassifyLevel(samples []Sample) Classification {
	if len(samples) == 0 {
		return Classification{Level: astopo.LevelGlobal}
	}
	places := placeCounts(samples)
	n := float64(len(samples))

	if place, count := majority(places, func(p Place) string { return p.City + "/" + p.Country }); float64(count)/n > ContainmentThreshold {
		return Classification{Level: astopo.LevelCity, Place: place, Share: float64(count) / n}
	}
	if place, count := majority(places, func(p Place) string { return p.State + "/" + p.Country }); float64(count)/n > ContainmentThreshold {
		return Classification{Level: astopo.LevelState, Place: place, Share: float64(count) / n}
	}
	if place, count := majority(places, func(p Place) string { return p.Country }); float64(count)/n > ContainmentThreshold {
		return Classification{Level: astopo.LevelCountry, Place: place, Share: float64(count) / n}
	}
	if place, count := majority(places, func(p Place) string { return string(p.Region) }); float64(count)/n > ContainmentThreshold {
		return Classification{Level: astopo.LevelContinent, Place: place, Share: float64(count) / n}
	}
	return Classification{Level: astopo.LevelGlobal, Place: "global", Share: 1}
}

// placeCounts counts samples per label tuple. It counts per *Place first,
// one pointer hash per sample, then merges Places that hold equal labels,
// so a build's interned samples hash their strings once per Place and
// hand-built samples with a Place each still fold to one row per tuple.
// A nil Place counts as the empty labels.
func placeCounts(samples []Sample) map[Place]int {
	byPtr := make(map[*Place]int)
	for i := range samples {
		byPtr[samples[i].Place]++
	}
	out := make(map[Place]int, len(byPtr))
	for p, n := range byPtr {
		out[Sample{Place: p}.Labels()] += n
	}
	return out
}

// majority folds the per-tuple counts into key(tuple) and returns the key
// with the most samples, the smallest key on a tie.
func majority(places map[Place]int, key func(Place) string) (string, int) {
	counts := make(map[string]int, len(places))
	for p, n := range places {
		counts[key(p)] += n
	}
	best, bestN := "", 0
	for k, c := range counts {
		if c > bestN || (c == bestN && k < best) {
			best, bestN = k, c
		}
	}
	return best, bestN
}

// DominantRegion returns the continental region holding the most samples
// — the region an AS is attributed to in Table 1.
func DominantRegion(samples []Sample) gazetteer.Region {
	counts := map[gazetteer.Region]int{}
	for p, n := range placeCounts(samples) {
		counts[p.Region] += n
	}
	best := gazetteer.Other
	bestN := -1
	for r, c := range counts {
		if c > bestN || (c == bestN && r < best) {
			best, bestN = r, c
		}
	}
	return best
}
