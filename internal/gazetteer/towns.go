package gazetteer

import (
	"fmt"

	"eyeballas/internal/geo"
	"eyeballas/internal/rng"
)

// Satellite towns.
//
// Real metropolitan areas are ringed by small towns; at fine KDE
// bandwidths (the paper's 10 km panel) density peaks land on them and the
// peak→city mapping resolves each as a distinct "PoP", which is exactly
// why the paper finds 31.9 PoPs per AS at 10 km but only 7.3 at 80 km,
// and why the fine-bandwidth PoP set is so imprecise (5% perfect match).
// The embedded gazetteer holds only major cities, so this layer
// synthesizes deterministic satellite towns around them. A town carries
// its parent metro's name in Metro; geolocation databases label suburban
// users with the metro (as commercial city databases do), while the
// peak→city mapping sees towns as ordinary gazetteer entries.

// townSeed fixes the deterministic town layer; it is part of the
// gazetteer's identity, not of any experiment's seed.
const townSeed = 0x7071e5

// generateTowns synthesizes satellite towns for every city with at least
// 400k inhabitants.
func generateTowns(cities []City) []City {
	src := rng.New(townSeed)
	var towns []City
	for i, c := range cities {
		if c.Pop < 400_000 {
			continue
		}
		s := src.SplitN("towns", i)
		n := c.Pop / 700_000
		if n < 1 {
			n = 1
		}
		if n > 6 {
			n = 6
		}
		r := c.RadiusKm()
		for t := 0; t < n; t++ {
			dist := s.Range(max(12, 0.6*r), 2.2*r)
			towns = append(towns, City{
				Name:    fmt.Sprintf("%s Town %d", c.Name, t+1),
				State:   c.State,
				Country: c.Country,
				Region:  c.Region,
				Metro:   c.Name,
				Loc:     geo.Destination(c.Loc, s.Range(0, 360), dist),
				Pop:     15_000 + int(s.Range(0, 75_000)),
			})
		}
	}
	return towns
}
