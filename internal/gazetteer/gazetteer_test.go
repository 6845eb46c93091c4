package gazetteer

import (
	"testing"

	"eyeballas/internal/geo"
	"eyeballas/internal/rng"
)

func TestDefaultGazetteerSanity(t *testing.T) {
	g := Default()
	if g.Len() < 400 {
		t.Fatalf("gazetteer too small: %d cities", g.Len())
	}
	seen := map[string]bool{}
	for _, c := range g.Cities() {
		if !c.Loc.Valid() {
			t.Errorf("%s has invalid location %v", c, c.Loc)
		}
		if c.Pop <= 0 {
			t.Errorf("%s has non-positive population", c)
		}
		if c.Country == "" || c.Name == "" {
			t.Errorf("city with empty name or country: %+v", c)
		}
		if c.Region == Other {
			t.Errorf("%s has unset region", c)
		}
		key := c.Name + "/" + c.Country
		if seen[key] {
			t.Errorf("duplicate city %s", key)
		}
		seen[key] = true
	}
}

// TestDefaultBuiltOnce: every call returns the one table built on first
// use, and a call after it allocates nothing.
func TestDefaultBuiltOnce(t *testing.T) {
	first := Default()
	if again := Default(); again != first {
		t.Fatalf("Default returned %p, then %p: want one table per process", first, again)
	}
	if n := testing.AllocsPerRun(10, func() { _ = Default() }); n != 0 {
		t.Errorf("Default allocates %v times per call after the first, want 0", n)
	}
}

func TestPaperCitiesPresent(t *testing.T) {
	// §4.2 lists the PoP-level footprint of AS 3269; every named city must
	// be resolvable, as must the case-study cities of §6.
	g := Default()
	for _, name := range []string{
		"Milan", "Rome", "Florence", "Venice", "Naples", "Turin", "Ancona",
		"Catania", "Palermo", "Pescara", "Bari", "Catanzaro", "Cagliari", "Sassari",
	} {
		if _, ok := g.Find(name, "IT"); !ok {
			t.Errorf("paper city %s, IT missing", name)
		}
	}
}

func TestRegionsPopulated(t *testing.T) {
	g := Default()
	for _, r := range []Region{NA, EU, AS} {
		if n := len(g.InRegion(r)); n < 80 {
			t.Errorf("region %s has only %d cities; the Table 1 experiments need density", r, n)
		}
	}
	for _, r := range []Region{SA, AF, OC} {
		if n := len(g.InRegion(r)); n < 10 {
			t.Errorf("region %s has only %d cities", r, n)
		}
	}
}

func TestInCountrySorted(t *testing.T) {
	g := Default()
	it := g.InCountry("IT")
	if len(it) < 30 {
		t.Fatalf("Italy has %d cities, want >= 30", len(it))
	}
	for i := 1; i < len(it); i++ {
		if it[i].Pop > it[i-1].Pop {
			t.Fatalf("InCountry not sorted by population: %s(%d) after %s(%d)",
				it[i].Name, it[i].Pop, it[i-1].Name, it[i-1].Pop)
		}
	}
	if it[0].Name != "Rome" {
		t.Errorf("largest Italian metro = %s, want Rome", it[0].Name)
	}
}

func TestWithin(t *testing.T) {
	g := Default()
	rome, _ := g.Find("Rome", "IT")
	near := g.Within(rome.Loc, 50)
	if len(near) == 0 || near[0].Name != "Rome" {
		t.Fatalf("Within(Rome, 50) first = %v", near)
	}
	// Milan is ~480 km from Rome; it must not appear within 300 km but
	// must appear within 600 km.
	for _, c := range g.Within(rome.Loc, 300) {
		if c.Name == "Milan" {
			t.Error("Milan within 300 km of Rome")
		}
	}
	found := false
	for _, c := range g.Within(rome.Loc, 600) {
		if c.Name == "Milan" {
			found = true
		}
	}
	if !found {
		t.Error("Milan not within 600 km of Rome")
	}
}

func TestWithinSortedByDistance(t *testing.T) {
	g := Default()
	milan, _ := g.Find("Milan", "IT")
	near := g.Within(milan.Loc, 300)
	if len(near) < 3 {
		t.Fatalf("too few cities near Milan: %d", len(near))
	}
	prev := -1.0
	for _, c := range near {
		d := geo.DistanceKm(milan.Loc, c.Loc)
		if d < prev-1e-9 {
			t.Fatalf("Within not sorted: %s at %.1f after %.1f", c.Name, d, prev)
		}
		prev = d
	}
}

func TestMostPopulousWithin(t *testing.T) {
	g := Default()
	// A point between Florence and Bologna: within 120 km, Bologna
	// (1.0M) should beat Florence (0.98M).
	florence, _ := g.Find("Florence", "IT")
	c, ok := g.MostPopulousWithin(florence.Loc, 5)
	if !ok || c.Name != "Florence" {
		t.Errorf("MostPopulousWithin(Florence, 5) = %v, %v", c, ok)
	}
	// Nothing in the middle of the Atlantic.
	if _, ok := g.MostPopulousWithin(geo.Point{Lat: 40, Lon: -40}, 100); ok {
		t.Error("found a city in the mid-Atlantic")
	}
	// Loose mapping: a peak 30 km from Milan should map to Milan with
	// a 40 km radius, even though smaller towns may be closer.
	off := geo.Destination(milanLoc(g), 45, 30)
	c, ok = g.MostPopulousWithin(off, 40)
	if !ok || c.Name != "Milan" {
		t.Errorf("loose mapping near Milan = %v, %v", c, ok)
	}
}

func milanLoc(g *Gazetteer) geo.Point {
	c, _ := g.Find("Milan", "IT")
	return c.Loc
}

func TestNearest(t *testing.T) {
	g := Default()
	rome, _ := g.Find("Rome", "IT")
	p := geo.Destination(rome.Loc, 10, 12)
	c, ok := g.Nearest(p, 40)
	if !ok || c.Name != "Rome" {
		t.Errorf("Nearest = %v, %v", c, ok)
	}
	if _, ok := g.Nearest(geo.Point{Lat: 0, Lon: -30}, 50); ok {
		t.Error("Nearest found a city in open ocean")
	}
}

func TestFindAbsent(t *testing.T) {
	g := Default()
	if _, ok := g.Find("Atlantis", "IT"); ok {
		t.Error("found Atlantis")
	}
	if _, ok := g.Find("Rome", "ZZ"); ok {
		t.Error("found Rome in ZZ")
	}
}

func TestRadiusKm(t *testing.T) {
	big := City{Pop: 20000000}
	if big.RadiusKm() != 35 {
		t.Errorf("megacity radius = %v, want 35 (clamped)", big.RadiusKm())
	}
	small := City{Pop: 1000}
	if small.RadiusKm() != 3 {
		t.Errorf("village radius = %v, want 3 (clamped)", small.RadiusKm())
	}
	mid := City{Pop: 400000}
	if r := mid.RadiusKm(); r < 10 || r > 35 {
		t.Errorf("mid city radius = %v", r)
	}
}

func TestCountries(t *testing.T) {
	g := Default()
	cs := g.Countries()
	if len(cs) < 40 {
		t.Errorf("only %d countries", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i] <= cs[i-1] {
			t.Fatal("Countries not sorted/unique")
		}
	}
}

func TestSynthesizeZips(t *testing.T) {
	g := Default()
	src := rng.New(1)
	zips := SynthesizeZips(g, src)
	if len(zips) < 3*g.Len() {
		t.Fatalf("too few zips: %d", len(zips))
	}
	// Determinism.
	zips2 := SynthesizeZips(g, rng.New(1))
	if len(zips) != len(zips2) || zips[0].Loc != zips2[0].Loc || zips[100].Loc != zips2[100].Loc {
		t.Error("zip synthesis is not deterministic")
	}
	// Every zip lies within its city's metro radius (plus slack).
	byName := map[string]City{}
	for _, c := range g.Cities() {
		// Name collisions across countries are fine for this bound check:
		// radii are similar in magnitude.
		byName[c.Name] = c
	}
	for _, z := range zips[:500] {
		c := byName[z.City]
		if d := geo.DistanceKm(c.Loc, z.Loc); d > c.RadiusKm()+1 {
			t.Errorf("zip of %s at distance %.1f > radius %.1f", z.City, d, c.RadiusKm())
		}
	}
}

func TestZipIndexNearest(t *testing.T) {
	g := Default()
	zips := SynthesizeZips(g, rng.New(2))
	idx := NewZipIndex(zips)
	if idx.Len() != len(zips) {
		t.Fatalf("index len %d != %d", idx.Len(), len(zips))
	}
	rome, _ := g.Find("Rome", "IT")
	z, ok := idx.Nearest(rome.Loc, 60)
	if !ok {
		t.Fatal("no zip near Rome")
	}
	if geo.DistanceKm(rome.Loc, z.Loc) > 40 {
		t.Errorf("nearest zip to Rome centre is %.1f km away", geo.DistanceKm(rome.Loc, z.Loc))
	}
	if _, ok := idx.Nearest(geo.Point{Lat: 35, Lon: -45}, 100); ok {
		t.Error("found a zip in the mid-Atlantic")
	}
	// Exhaustive check on a sample: reported nearest is truly nearest.
	probe := geo.Destination(rome.Loc, 123, 7)
	got, _ := idx.Nearest(probe, 100)
	best := ZipCentroid{}
	bestD := 1e18
	for _, z := range zips {
		if d := geo.DistanceKm(probe, z.Loc); d < bestD {
			bestD, best = d, z
		}
	}
	if got.Loc != best.Loc {
		t.Errorf("Nearest returned %v (%.2f km), true nearest %v (%.2f km)",
			got.Loc, geo.DistanceKm(probe, got.Loc), best.Loc, bestD)
	}
}

func TestKNearestIntoEmpty(t *testing.T) {
	idx := NewZipIndex(nil)
	var buf [4]ZipCentroid
	if n := idx.KNearestInto(geo.Point{Lat: 40, Lon: 10}, 100, buf[:]); n != 0 {
		t.Errorf("empty index returned %d", n)
	}
}
