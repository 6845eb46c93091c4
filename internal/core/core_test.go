package core

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/rng"
)

// cloudAround synthesizes samples scattered around a city like real
// metro users.
func cloudAround(src *rng.Source, c gazetteer.City, n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		dist := c.RadiusKm() * src.Float64()
		out[i] = Sample{
			Loc:   geo.Destination(c.Loc, src.Range(0, 360), dist),
			Place: &Place{City: c.Name, State: c.State, Country: c.Country, Region: c.Region},
		}
	}
	return out
}

func mustCity(t *testing.T, gaz *gazetteer.Gazetteer, name, cc string) gazetteer.City {
	t.Helper()
	c, ok := gaz.Find(name, cc)
	if !ok {
		t.Fatalf("city %s/%s missing", name, cc)
	}
	return c
}

// TestSampleIs32Bytes pins the compact layout: a location, one shared
// Place pointer and the error estimate.
func TestSampleIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Sample{}); got != 32 {
		t.Errorf("Sample is %d bytes, want 32", got)
	}
}

func TestEstimateFootprintEmpty(t *testing.T) {
	if _, err := EstimateFootprint(gazetteer.Default(), nil, Options{}); err == nil {
		t.Error("empty samples should error")
	}
}

func TestEstimateFootprintTwoCities(t *testing.T) {
	gaz := gazetteer.Default()
	src := rng.New(61)
	milan := mustCity(t, gaz, "Milan", "IT")
	rome := mustCity(t, gaz, "Rome", "IT")
	samples := append(cloudAround(src, milan, 600), cloudAround(src, rome, 400)...)

	fp, err := EstimateFootprint(gaz, samples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fp.N != 1000 || fp.Bandwidth != 40 {
		t.Errorf("N=%d bandwidth=%v", fp.N, fp.Bandwidth)
	}
	if len(fp.PoPs) != 2 {
		t.Fatalf("PoPs = %v", fp.CityList())
	}
	if fp.PoPs[0].City.Name != "Milan" || fp.PoPs[1].City.Name != "Rome" {
		t.Errorf("PoP order: %s", fp.CityList())
	}
	if fp.PoPs[0].Density <= fp.PoPs[1].Density {
		t.Error("densities not ordered")
	}
	// Mass share within one bandwidth of the Milan peak: the 60% Milan
	// cluster spread over a ~35 km metro keeps roughly a third of its
	// mass within 40 km of the peak — the same magnitude as the paper's
	// §4.2 list (Milan 0.130 of AS 3269). Bound it loosely.
	if fp.PoPs[0].Density < 0.1 || fp.PoPs[0].Density > 0.6 {
		t.Errorf("Milan density = %v", fp.PoPs[0].Density)
	}
	// Peak location near the city.
	if geo.DistanceKm(fp.PoPs[0].PeakLoc, milan.Loc) > 40 {
		t.Errorf("Milan peak %v too far from Milan", fp.PoPs[0].PeakLoc)
	}
	// Two partitions (Milan and Rome are ~480 km apart, far beyond 40 km
	// bandwidth).
	if len(fp.Partitions) < 2 {
		t.Errorf("partitions = %d, want >= 2", len(fp.Partitions))
	}
	// CityList formatting.
	list := fp.CityList()
	if !strings.HasPrefix(list, "[Milan (0.") && !strings.HasPrefix(list, "[Milan (.") {
		t.Errorf("CityList = %s", list)
	}
}

// TestBandwidthControlsResolution reproduces Figure 1's mechanism: Milan
// and Verona (~140 km apart) are separate PoPs at 15 km bandwidth and a
// single merged PoP at 80 km (two equal-width Gaussians merge once their
// separation falls below ~2 bandwidths).
func TestBandwidthControlsResolution(t *testing.T) {
	gaz := gazetteer.Default()
	src := rng.New(62)
	milan := mustCity(t, gaz, "Milan", "IT")
	verona := mustCity(t, gaz, "Verona", "IT")
	samples := append(cloudAround(src, milan, 800), cloudAround(src, verona, 300)...)

	fpFine, err := EstimateFootprint(gaz, samples, Options{BandwidthKm: 15})
	if err != nil {
		t.Fatal(err)
	}
	fpCoarse, err := EstimateFootprint(gaz, samples, Options{BandwidthKm: 80})
	if err != nil {
		t.Fatal(err)
	}
	fineHasBoth := false
	milanFound, veronaFound := false, false
	for _, p := range fpFine.PoPs {
		if p.City.Name == "Milan" {
			milanFound = true
		}
		if p.City.Name == "Verona" {
			veronaFound = true
		}
	}
	fineHasBoth = milanFound && veronaFound
	if !fineHasBoth {
		t.Errorf("bw=15: PoPs = %s, want Milan and Verona separate", fpFine.CityList())
	}
	if len(fpCoarse.PoPs) != 1 {
		t.Errorf("bw=80: PoPs = %s, want a single merged PoP", fpCoarse.CityList())
	}
}

func TestAlphaFiltersMinorPeaks(t *testing.T) {
	gaz := gazetteer.Default()
	src := rng.New(63)
	rome := mustCity(t, gaz, "Rome", "IT")
	palermo := mustCity(t, gaz, "Palermo", "IT")
	// Palermo cluster is tiny relative to Rome.
	samples := append(cloudAround(src, rome, 5000), cloudAround(src, palermo, 6)...)

	strict, err := EstimateFootprint(gaz, samples, Options{Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range strict.PoPs {
		if p.City.Name == "Palermo" {
			t.Errorf("alpha=0.3 kept the minor Palermo peak")
		}
	}
	loose, err := EstimateFootprint(gaz, samples, Options{Alpha: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range loose.PoPs {
		if p.City.Name == "Palermo" {
			found = true
		}
	}
	if !found {
		t.Errorf("alpha=0.0001 dropped Palermo: %s", loose.CityList())
	}
}

func TestNoCityPeakDropped(t *testing.T) {
	gaz := gazetteer.Default()
	src := rng.New(64)
	// A cluster in the open Sahara, far from any gazetteer city.
	desert := geo.Point{Lat: 23.5, Lon: 10.0}
	var samples []Sample
	for i := 0; i < 300; i++ {
		samples = append(samples, Sample{Loc: geo.Destination(desert, src.Range(0, 360), src.Range(0, 20))})
	}
	fp, err := EstimateFootprint(gaz, samples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fp.NoCityPeaks == 0 {
		t.Error("desert peak should map to no city")
	}
	if len(fp.PoPs) != 0 {
		t.Errorf("desert produced PoPs: %s", fp.CityList())
	}
}

func TestLooseCityMappingPicksMostPopulous(t *testing.T) {
	// Samples centred between two cities where the peak is within the
	// mapping radius of both: the more populous must win (§4.2).
	gaz := gazetteer.Default()
	src := rng.New(65)
	milan := mustCity(t, gaz, "Milan", "IT")     // 3.2M
	bergamo := mustCity(t, gaz, "Bergamo", "IT") // 0.49M
	mid := geo.Midpoint(milan.Loc, bergamo.Loc)
	var samples []Sample
	for i := 0; i < 500; i++ {
		samples = append(samples, Sample{Loc: geo.Destination(mid, src.Range(0, 360), src.Range(0, 10))})
	}
	fp, err := EstimateFootprint(gaz, samples, Options{BandwidthKm: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.PoPs) != 1 || fp.PoPs[0].City.Name != "Milan" {
		t.Errorf("loose mapping chose %s, want Milan", fp.CityList())
	}
}

func TestDensitiesAreMassShares(t *testing.T) {
	gaz := gazetteer.Default()
	src := rng.New(66)
	rome := mustCity(t, gaz, "Rome", "IT")
	fp, err := EstimateFootprint(gaz, cloudAround(src, rome, 1000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.PoPs) != 1 {
		t.Fatalf("PoPs = %s", fp.CityList())
	}
	// A single cluster over Rome's ~35 km metro smoothed at 40 km keeps
	// roughly a third of its mass within one bandwidth of the peak.
	if d := fp.PoPs[0].Density; d < 0.2 || d > 0.8 {
		t.Errorf("density = %v, want ~[0.2, 0.8]", d)
	}
	sum := 0.0
	for _, p := range fp.PoPs {
		sum += p.Density
	}
	if sum > 1.01 {
		t.Errorf("density shares sum to %v > 1", sum)
	}
}

func TestFootprintDeterministic(t *testing.T) {
	gaz := gazetteer.Default()
	rome := mustCity(t, gaz, "Rome", "IT")
	s1 := cloudAround(rng.New(67), rome, 400)
	s2 := cloudAround(rng.New(67), rome, 400)
	fp1, err := EstimateFootprint(gaz, s1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := EstimateFootprint(gaz, s2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fp1.CityList() != fp2.CityList() || math.Abs(fp1.Dmax-fp2.Dmax) > 1e-15 {
		t.Error("footprint estimation not deterministic")
	}
}

// TestTownsEnableFineScaleSplitting documents the satellite-town layer's
// role in the Figure 2 reproduction: at 10 km bandwidth, suburban density
// peaks map to distinct satellite towns (more, less reliable PoPs — the
// paper's 10 km regime); against a majors-only gazetteer the same peaks
// either collapse into the metro or map to no city at all.
func TestTownsEnableFineScaleSplitting(t *testing.T) {
	withTowns := gazetteer.Default()
	majorsOnly := gazetteer.DefaultMajorsOnly()
	src := rng.New(68)
	milan := mustCity(t, withTowns, "Milan", "IT")
	// Find Milan's satellite towns that sit beyond the 10 km mapping
	// radius of the metro centre.
	var suburbs []gazetteer.City
	for _, c := range withTowns.InCountry("IT") {
		if c.Metro == "Milan" && geo.DistanceKm(c.Loc, milan.Loc) > 15 {
			suburbs = append(suburbs, c)
		}
	}
	if len(suburbs) < 2 {
		t.Fatalf("Milan has only %d distant satellite towns", len(suburbs))
	}
	// A dense core plus compact suburban clusters at the towns — the
	// zip-snapped structure real metro samples have.
	var samples []Sample
	for i := 0; i < 2500; i++ {
		samples = append(samples, Sample{Loc: geo.Destination(milan.Loc, src.Range(0, 360), src.Range(0, 10))})
	}
	for _, town := range suburbs[:2] {
		for i := 0; i < 400; i++ {
			samples = append(samples, Sample{Loc: geo.Destination(town.Loc, src.Range(0, 360), src.Range(0, 3))})
		}
	}
	fpTowns, err := EstimateFootprint(withTowns, samples, Options{BandwidthKm: 10})
	if err != nil {
		t.Fatal(err)
	}
	fpMajors, err := EstimateFootprint(majorsOnly, samples, Options{BandwidthKm: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(fpTowns.PoPs) <= len(fpMajors.PoPs) {
		t.Errorf("towns gazetteer found %d PoPs, majors-only %d; towns should enable splitting",
			len(fpTowns.PoPs), len(fpMajors.PoPs))
	}
	// At the paper's default 40 km, the loose mapping absorbs suburbs
	// into the metro either way.
	fp40, err := EstimateFootprint(withTowns, samples, Options{BandwidthKm: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fp40.PoPs {
		if p.City.IsTown() {
			t.Errorf("40 km footprint contains town %s; loose mapping should pick the metro", p.City.Name)
		}
	}
}

func TestFootprintAreaAndReach(t *testing.T) {
	gaz := gazetteer.Default()
	src := rng.New(69)
	milan := mustCity(t, gaz, "Milan", "IT")
	rome := mustCity(t, gaz, "Rome", "IT")
	fp, err := EstimateFootprint(gaz, append(cloudAround(src, milan, 500), cloudAround(src, rome, 500)...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fp.AreaKm2() <= 0 {
		t.Errorf("AreaKm2 = %v", fp.AreaKm2())
	}
	// Reach ≈ Milan–Rome distance (~477 km).
	if r := fp.ReachKm(); math.Abs(r-477) > 60 {
		t.Errorf("ReachKm = %v, want ~477", r)
	}
	// Single-city footprint: zero reach, smaller area.
	fp1, err := EstimateFootprint(gaz, cloudAround(src, rome, 500), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fp1.ReachKm() != 0 {
		t.Errorf("single-PoP reach = %v", fp1.ReachKm())
	}
	if fp1.AreaKm2() >= fp.AreaKm2() {
		t.Errorf("single-city area %v >= two-city area %v", fp1.AreaKm2(), fp.AreaKm2())
	}
}
