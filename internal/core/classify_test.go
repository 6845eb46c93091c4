package core

import (
	"testing"

	"eyeballas/internal/astopo"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/rng"
)

func mkSamples(entries ...[4]string) []Sample {
	// entries: {city, state, country, region}
	out := make([]Sample, len(entries))
	for i, e := range entries {
		out[i] = Sample{Place: &Place{City: e[0], State: e[1], Country: e[2], Region: gazetteer.Region(e[3])}}
	}
	return out
}

func repeat(s Sample, n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = s
	}
	return out
}

var (
	milanS   = Sample{Place: &Place{City: "Milan", State: "Lombardy", Country: "IT", Region: gazetteer.EU}}
	bergamoS = Sample{Place: &Place{City: "Bergamo", State: "Lombardy", Country: "IT", Region: gazetteer.EU}}
	romeS    = Sample{Place: &Place{City: "Rome", State: "Lazio", Country: "IT", Region: gazetteer.EU}}
	parisS   = Sample{Place: &Place{City: "Paris", State: "Ile-de-France", Country: "FR", Region: gazetteer.EU}}
	nycS     = Sample{Place: &Place{City: "New York", State: "New York", Country: "US", Region: gazetteer.NA}}
	tokyoS   = Sample{Place: &Place{City: "Tokyo", State: "Kanto", Country: "JP", Region: gazetteer.AS}}
)

func TestClassifyCity(t *testing.T) {
	samples := append(repeat(milanS, 97), repeat(romeS, 3)...)
	c := ClassifyLevel(samples)
	if c.Level != astopo.LevelCity || c.Place != "Milan/IT" {
		t.Errorf("got %+v", c)
	}
	if c.Share <= 0.95 {
		t.Errorf("share = %v", c.Share)
	}
}

func TestClassifyState(t *testing.T) {
	// Milan + Bergamo are both Lombardy: city fails, state passes.
	samples := append(repeat(milanS, 60), repeat(bergamoS, 38)...)
	samples = append(samples, repeat(romeS, 2)...)
	c := ClassifyLevel(samples)
	if c.Level != astopo.LevelState || c.Place != "Lombardy/IT" {
		t.Errorf("got %+v", c)
	}
}

func TestClassifyCountry(t *testing.T) {
	samples := append(repeat(milanS, 50), repeat(romeS, 48)...)
	samples = append(samples, repeat(parisS, 2)...)
	c := ClassifyLevel(samples)
	if c.Level != astopo.LevelCountry || c.Place != "IT" {
		t.Errorf("got %+v", c)
	}
}

func TestClassifyContinent(t *testing.T) {
	samples := append(repeat(milanS, 50), repeat(parisS, 48)...)
	samples = append(samples, repeat(nycS, 2)...)
	c := ClassifyLevel(samples)
	if c.Level != astopo.LevelContinent || c.Place != "EU" {
		t.Errorf("got %+v", c)
	}
}

func TestClassifyGlobal(t *testing.T) {
	samples := append(repeat(milanS, 40), repeat(nycS, 35)...)
	samples = append(samples, repeat(tokyoS, 25)...)
	c := ClassifyLevel(samples)
	if c.Level != astopo.LevelGlobal {
		t.Errorf("got %+v", c)
	}
}

func TestClassifyThresholdIsStrict(t *testing.T) {
	// Exactly 95% must NOT qualify (the paper requires > 95%).
	samples := append(repeat(milanS, 95), repeat(romeS, 5)...)
	c := ClassifyLevel(samples)
	if c.Level == astopo.LevelCity {
		t.Errorf("95%% exactly classified as city: %+v", c)
	}
	if c.Level != astopo.LevelCountry {
		t.Errorf("got %+v, want country", c)
	}
}

func TestClassifyEmpty(t *testing.T) {
	if c := ClassifyLevel(nil); c.Level != astopo.LevelGlobal {
		t.Errorf("empty classification = %+v", c)
	}
}

func TestDominantRegion(t *testing.T) {
	samples := append(repeat(milanS, 10), repeat(nycS, 5)...)
	if r := DominantRegion(samples); r != gazetteer.EU {
		t.Errorf("dominant region = %v", r)
	}
	if r := DominantRegion(nil); r != gazetteer.Other {
		t.Errorf("empty dominant region = %v", r)
	}
}

// classifyLevelRef is the string-keyed classification ClassifyLevel
// replaced, kept as its reference: one key string per sample per level.
func classifyLevelRef(samples []Sample) Classification {
	if len(samples) == 0 {
		return Classification{Level: astopo.LevelGlobal}
	}
	n := float64(len(samples))
	for _, lv := range []struct {
		level astopo.Level
		key   func(Place) string
	}{
		{astopo.LevelCity, func(p Place) string { return p.City + "/" + p.Country }},
		{astopo.LevelState, func(p Place) string { return p.State + "/" + p.Country }},
		{astopo.LevelCountry, func(p Place) string { return p.Country }},
		{astopo.LevelContinent, func(p Place) string { return string(p.Region) }},
	} {
		if place, count := majorityRef(samples, lv.key); float64(count)/n > ContainmentThreshold {
			return Classification{Level: lv.level, Place: place, Share: float64(count) / n}
		}
	}
	return Classification{Level: astopo.LevelGlobal, Place: "global", Share: 1}
}

func majorityRef(samples []Sample, key func(Place) string) (string, int) {
	counts := map[string]int{}
	for _, s := range samples {
		counts[key(s.Labels())]++
	}
	best, bestN := "", 0
	for k, c := range counts {
		if c > bestN || (c == bestN && k < best) {
			best, bestN = k, c
		}
	}
	return best, bestN
}

func dominantRegionRef(samples []Sample) gazetteer.Region {
	counts := map[gazetteer.Region]int{}
	for _, s := range samples {
		counts[s.Labels().Region]++
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

// assertClassifiedAsReference checks ClassifyLevel and DominantRegion
// against the string-keyed reference.
func assertClassifiedAsReference(t *testing.T, name string, samples []Sample) {
	t.Helper()
	if got, want := ClassifyLevel(samples), classifyLevelRef(samples); got != want {
		t.Errorf("%s: ClassifyLevel = %+v, reference %+v", name, got, want)
	}
	if got, want := DominantRegion(samples), dominantRegionRef(samples); got != want {
		t.Errorf("%s: DominantRegion = %v, reference %v", name, got, want)
	}
}

// TestClassifyMatchesReferenceAcrossSplitPlaces: Places that share a
// city and country but differ in state or region are separate counting
// rows, and must merge into one city key exactly as the per-sample
// strings did.
func TestClassifyMatchesReferenceAcrossSplitPlaces(t *testing.T) {
	ilNA := &Place{City: "Springfield", State: "IL", Country: "US", Region: gazetteer.NA}
	maNA := &Place{City: "Springfield", State: "MA", Country: "US", Region: gazetteer.NA}
	ilEU := &Place{City: "Springfield", State: "IL", Country: "US", Region: gazetteer.EU}
	boston := &Place{City: "Boston", State: "MA", Country: "US", Region: gazetteer.NA}
	build := func(counts map[*Place]int, order ...*Place) []Sample {
		var out []Sample
		for _, p := range order {
			for i := 0; i < counts[p]; i++ {
				out = append(out, Sample{Place: p})
			}
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		counts map[*Place]int
		want   astopo.Level
	}{
		// The city key merges three Places: 99 of 100.
		{"city", map[*Place]int{ilNA: 60, maNA: 37, ilEU: 2, boston: 1}, astopo.LevelCity},
		// City 94% and state 74% fail; country passes.
		{"country", map[*Place]int{ilNA: 30, maNA: 20, ilEU: 44, boston: 6}, astopo.LevelCountry},
		// Regions split 50/50: the tie goes to the smaller label.
		{"region-tie", map[*Place]int{ilNA: 25, maNA: 25, ilEU: 50}, astopo.LevelCity},
	} {
		samples := build(tc.counts, ilNA, maNA, ilEU, boston)
		assertClassifiedAsReference(t, tc.name, samples)
		if got := ClassifyLevel(samples).Level; got != tc.want {
			t.Errorf("%s: level %v, want %v", tc.name, got, tc.want)
		}
	}
	if r := DominantRegion(build(map[*Place]int{ilNA: 25, maNA: 25, ilEU: 50}, ilNA, maNA, ilEU)); r != gazetteer.EU {
		t.Errorf("50/50 region tie went to %v, want EU", r)
	}
}

// TestClassifyMatchesReferenceWithoutInterning: equal labels held in
// separate Places (as hand-built samples have them), and nil Places
// beside empty ones, count together exactly as equal strings did.
func TestClassifyMatchesReferenceWithoutInterning(t *testing.T) {
	fresh := func(s Sample, n int) []Sample {
		out := make([]Sample, n)
		for i := range out {
			p := *s.Place
			out[i] = Sample{Place: &p}
		}
		return out
	}
	cases := map[string][]Sample{
		"city":      append(fresh(milanS, 97), fresh(romeS, 3)...),
		"state":     append(append(fresh(milanS, 60), fresh(bergamoS, 38)...), fresh(romeS, 2)...),
		"continent": append(append(fresh(milanS, 50), fresh(parisS, 48)...), fresh(nycS, 2)...),
		"global":    append(append(fresh(milanS, 40), fresh(nycS, 35)...), fresh(tokyoS, 25)...),
		"nil-and-empty": append(append(make([]Sample, 60), fresh(Sample{Place: &Place{}}, 39)...),
			fresh(milanS, 1)...),
	}
	for name, samples := range cases {
		assertClassifiedAsReference(t, name, samples)
	}

	// Random multisets over a small vocabulary: every sample gets an
	// interned Place or a fresh copy of one, and an empty one may be nil.
	src := rng.New(18)
	vocab := []Place{{}}
	for _, city := range []string{"A", "A b", "B"} {
		for _, state := range []string{"S", "T"} {
			for _, cc := range []string{"X", "Y"} {
				for _, r := range []gazetteer.Region{gazetteer.EU, gazetteer.NA} {
					vocab = append(vocab, Place{City: city, State: state, Country: cc, Region: r})
				}
			}
		}
	}
	interned := Places{}
	for trial := 0; trial < 300; trial++ {
		// A skewed draw so that every level passes in some trials.
		top := src.Intn(len(vocab))
		skew := src.Range(0.5, 1)
		samples := make([]Sample, 1+src.Intn(200))
		for i := range samples {
			p := vocab[src.Intn(len(vocab))]
			if src.Bool(skew) {
				p = vocab[top]
			}
			switch {
			case p == Place{} && src.Bool(0.5):
				// A label-less sample.
			case src.Bool(0.5):
				samples[i].Place = interned.Intern(p)
			default:
				samples[i].Place = &p
			}
		}
		assertClassifiedAsReference(t, "random", samples)
	}
}
