package astopo

import (
	"fmt"

	"eyeballas/internal/gazetteer"
)

// Config controls world generation: its scale. The zero value is not
// usable; start from DefaultConfig (full scale) or SmallConfig (test
// scale). The calibration every scale shares is fixed below.
type Config struct {
	Seed uint64

	// EyeballsPerRegion sets how many eyeball ASes each region receives.
	EyeballsPerRegion map[gazetteer.Region]int

	// NTier1 is the number of global transit-free backbones.
	NTier1 int

	// Customer population per eyeball AS: bounded Pareto with tail index
	// customerAlpha.
	CustomerMin float64
	CustomerCap int

	// IXPsPerRegion places exchanges at each region's largest cities.
	IXPsPerRegion map[gazetteer.Region]int

	// ContentPerRegion adds small content/enterprise ASes (RAI-like).
	ContentPerRegion map[gazetteer.Region]int
}

// levelMix gives per-region weights for city/state/country-level eyeball
// ASes, following the asymmetry of the paper's Table 1: North America is
// state-heavy, Europe country-heavy, Asia city-heavy.
var levelMix = map[gazetteer.Region][3]float64{
	// city, state, country — Table 1 ratios.
	gazetteer.NA: {36, 162, 129},
	gazetteer.EU: {60, 76, 292},
	gazetteer.AS: {117, 35, 134},
	gazetteer.SA: {30, 30, 40},
	gazetteer.AF: {30, 20, 50},
	gazetteer.OC: {30, 30, 40},
}

// customerAlpha is the tail index of the bounded-Pareto customer
// population per eyeball AS.
const customerAlpha float64 = 0.9

// infraPoPProb is the probability an eyeball AS has an extra
// infrastructure-only PoP away from its customers (§5's first mismatch
// cause).
const infraPoPProb float64 = 0.25

// publishProb is the probability a state- or country-level eyeball AS
// publishes its PoP list online (the §5 reference dataset: 45 of 672
// searched, ≈ 6.7%).
const publishProb float64 = 0.067

// localIXPJoinProb and remoteIXPJoinProb control how readily eyeball and
// transit ASes join exchanges in (resp. away from) their PoP cities.
// Europe peers most actively (§1, §6).
var (
	localIXPJoinProb = map[gazetteer.Region]float64{
		gazetteer.NA: 0.40, gazetteer.EU: 0.70, gazetteer.AS: 0.40,
		gazetteer.SA: 0.35, gazetteer.AF: 0.30, gazetteer.OC: 0.35,
	}
	remoteIXPJoinProb = map[gazetteer.Region]float64{
		gazetteer.NA: 0.05, gazetteer.EU: 0.18, gazetteer.AS: 0.06,
		gazetteer.SA: 0.04, gazetteer.AF: 0.03, gazetteer.OC: 0.04,
	}
)

// DefaultConfig returns the full-scale configuration used by the
// experiment harness: ~650 eyeball ASes (the paper's 1233, scaled to keep
// a laptop run in seconds).
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed: seed,
		EyeballsPerRegion: map[gazetteer.Region]int{
			gazetteer.NA: 180, gazetteer.EU: 250, gazetteer.AS: 170,
			gazetteer.SA: 25, gazetteer.AF: 12, gazetteer.OC: 13,
		},
		NTier1:      12,
		CustomerMin: 6000,
		CustomerCap: 400000,
		IXPsPerRegion: map[gazetteer.Region]int{
			gazetteer.NA: 8, gazetteer.EU: 16, gazetteer.AS: 8,
			gazetteer.SA: 3, gazetteer.AF: 2, gazetteer.OC: 2,
		},
		ContentPerRegion: map[gazetteer.Region]int{
			gazetteer.NA: 12, gazetteer.EU: 18, gazetteer.AS: 10,
		},
	}
}

// PaperConfig returns a configuration at the paper's population: 1233
// eyeball ASes split across regions in Table 1's proportions. A full
// pipeline run at this scale processes several million crawled peers and
// takes a few minutes; pair it with pipeline.PaperConfig's literal
// 1000-peer floor.
func PaperConfig(seed uint64) Config {
	c := DefaultConfig(seed)
	c.EyeballsPerRegion = map[gazetteer.Region]int{
		// Table 1 row sums: NA 327, EU 428, AS 286; the remainder of the
		// 1233 spread over the unprofiled regions.
		gazetteer.NA: 327, gazetteer.EU: 428, gazetteer.AS: 286,
		gazetteer.SA: 110, gazetteer.AF: 40, gazetteer.OC: 42,
	}
	c.CustomerCap = 800000
	return c
}

// SmallConfig returns a fast configuration for unit and integration tests:
// ~60 eyeball ASes.
func SmallConfig(seed uint64) Config {
	c := DefaultConfig(seed)
	c.EyeballsPerRegion = map[gazetteer.Region]int{
		gazetteer.NA: 18, gazetteer.EU: 24, gazetteer.AS: 16,
		gazetteer.SA: 2, gazetteer.AF: 1, gazetteer.OC: 1,
	}
	c.NTier1 = 6
	c.CustomerMin = 4000
	c.CustomerCap = 60000
	c.IXPsPerRegion = map[gazetteer.Region]int{
		gazetteer.NA: 4, gazetteer.EU: 6, gazetteer.AS: 4,
		gazetteer.SA: 1, gazetteer.AF: 1, gazetteer.OC: 1,
	}
	c.ContentPerRegion = map[gazetteer.Region]int{
		gazetteer.NA: 2, gazetteer.EU: 3, gazetteer.AS: 2,
	}
	return c
}

// validate reports configuration errors.
func (c Config) validate() error {
	if len(c.EyeballsPerRegion) == 0 {
		return fmt.Errorf("astopo: EyeballsPerRegion is empty")
	}
	if c.NTier1 < 2 {
		return fmt.Errorf("astopo: need at least 2 tier-1 ASes, got %d", c.NTier1)
	}
	if c.CustomerMin <= 0 || c.CustomerCap < int(c.CustomerMin) {
		return fmt.Errorf("astopo: invalid customer distribution (min %v cap %d)",
			c.CustomerMin, c.CustomerCap)
	}
	return nil
}
