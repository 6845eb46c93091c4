// Package gazetteer provides the city database the reproduction uses as
// physical geography: real major cities with approximate coordinates,
// populations, and administrative grouping, plus a spatial index for the
// radius queries that PoP→city mapping needs.
//
// The paper consults a commercial city/zip gazetteer implicitly through the
// MaxMind and IP2Location databases; here the same information is embedded
// directly (~500 real cities across North America, Europe, Asia, and the
// rest of the world). Coordinates are city centres to roughly ±0.05°,
// populations are approximate metro populations — fully adequate for a
// synthetic world whose users are generated around these cities. Each
// city gets one synthetic zip centroid per peoplePerZip (60,000)
// inhabitants, between minZipsPerCity (3) and maxZipsPerCity (48).
package gazetteer

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"eyeballas/internal/geo"
)

// Region is a coarse continental region, matching the paper's
// NA/EU/AS partitioning (other continents are generated but not profiled
// in Table 1).
type Region string

// Continental regions.
const (
	NA    Region = "NA" // North America
	EU    Region = "EU" // Europe
	AS    Region = "AS" // Asia
	SA    Region = "SA" // South America
	AF    Region = "AF" // Africa
	OC    Region = "OC" // Oceania
	Other Region = "??"
)

// City is one gazetteer entry: a major city or a synthetic satellite
// town (see towns.go).
type City struct {
	Name    string
	State   string // administrative subdivision (US state, DE Land, …); may be ""
	Country string // ISO 3166-1 alpha-2
	Region  Region
	// Metro names the parent major city for satellite towns; "" for
	// major cities themselves.
	Metro string
	Loc   geo.Point
	Pop   int // approximate metro population
}

// IsTown reports whether the entry is a satellite town of a larger metro.
func (c City) IsTown() bool { return c.Metro != "" }

// MetroName returns the metropolitan label: the parent metro's name for a
// town, the city's own name otherwise. Geolocation databases label users
// at metro granularity.
func (c City) MetroName() string {
	if c.Metro != "" {
		return c.Metro
	}
	return c.Name
}

// RadiusKm returns the nominal metro radius used for scattering users and
// zip centroids: grows with sqrt(population), clamped to [3, 35] km. The
// paper treats 30–35 km as the radius of a large city (§3.1).
func (c City) RadiusKm() float64 {
	r := 0.035 * math.Sqrt(float64(c.Pop))
	if r < 3 {
		return 3
	}
	if r > 35 {
		return 35
	}
	return r
}

// String renders "Name, CC".
func (c City) String() string { return fmt.Sprintf("%s, %s", c.Name, c.Country) }

// Gazetteer is an immutable city database with a spatial index.
type Gazetteer struct {
	cities []City
	// cell index: 1°×1° buckets keyed by (latIdx, lonIdx) → city indices.
	cells map[cellKey][]int
	// byCountry maps ISO country code to city indices sorted by -Pop.
	byCountry map[string][]int
}

type cellKey struct{ lat, lon int }

func keyFor(p geo.Point) cellKey {
	return cellKey{lat: int(math.Floor(p.Lat)), lon: int(math.Floor(p.Lon))}
}

// New builds a gazetteer over the given cities. The slice is copied.
func New(cities []City) *Gazetteer {
	g := &Gazetteer{
		cities:    append([]City(nil), cities...),
		cells:     make(map[cellKey][]int),
		byCountry: make(map[string][]int),
	}
	for i, c := range g.cities {
		k := keyFor(c.Loc)
		g.cells[k] = append(g.cells[k], i)
		g.byCountry[c.Country] = append(g.byCountry[c.Country], i)
	}
	for _, idx := range g.byCountry {
		sort.Slice(idx, func(a, b int) bool {
			if g.cities[idx[a]].Pop != g.cities[idx[b]].Pop {
				return g.cities[idx[a]].Pop > g.cities[idx[b]].Pop
			}
			return g.cities[idx[a]].Name < g.cities[idx[b]].Name
		})
	}
	return g
}

// Default returns the embedded world gazetteer: the major cities plus
// the deterministic satellite-town layer. It is built once per process,
// on first use, and every call returns that one immutable table.
func Default() *Gazetteer { return defaultGaz() }

var defaultGaz = sync.OnceValue(func() *Gazetteer {
	cities := worldCities()
	return New(append(cities, generateTowns(cities)...))
})

// DefaultMajorsOnly returns the gazetteer without the satellite-town
// layer, for callers studying the towns' effect in isolation.
func DefaultMajorsOnly() *Gazetteer { return New(worldCities()) }

// Len returns the number of cities.
func (g *Gazetteer) Len() int { return len(g.cities) }

// Cities returns all cities (shared slice; callers must not modify it).
func (g *Gazetteer) Cities() []City { return g.cities }

// City returns the i-th city.
func (g *Gazetteer) City(i int) City { return g.cities[i] }

// InCountry returns the cities of an ISO country code, most populous first.
func (g *Gazetteer) InCountry(cc string) []City {
	idx := g.byCountry[cc]
	out := make([]City, len(idx))
	for i, j := range idx {
		out[i] = g.cities[j]
	}
	return out
}

// MajorInCountry returns a country's major (non-town) cities, most
// populous first — the entries infrastructure like PoPs and IXPs can
// plausibly sit at.
func (g *Gazetteer) MajorInCountry(cc string) []City {
	all := g.InCountry(cc)
	out := all[:0:0]
	for _, c := range all {
		if !c.IsTown() {
			out = append(out, c)
		}
	}
	return out
}

// MajorInRegion returns a region's major (non-town) cities, most
// populous first.
func (g *Gazetteer) MajorInRegion(r Region) []City {
	all := g.InRegion(r)
	out := all[:0:0]
	for _, c := range all {
		if !c.IsTown() {
			out = append(out, c)
		}
	}
	return out
}

// Countries returns the ISO codes present, sorted.
func (g *Gazetteer) Countries() []string {
	out := make([]string, 0, len(g.byCountry))
	for cc := range g.byCountry {
		out = append(out, cc)
	}
	sort.Strings(out)
	return out
}

// InRegion returns the cities of a continental region, most populous first.
func (g *Gazetteer) InRegion(r Region) []City {
	var out []City
	for _, c := range g.cities {
		if c.Region == r {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Pop != out[b].Pop {
			return out[a].Pop > out[b].Pop
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// cellBox is the block of 1°×1° cells that covers a km-radius disc
// around a point. Longitude indices are unwrapped: cellAt maps them back
// across the antimeridian.
type cellBox struct{ minLat, maxLat, minLon, maxLon int }

func boxAround(p geo.Point, km float64) cellBox {
	dLat := km/111.19 + 1e-9
	cos := math.Cos(p.Lat * math.Pi / 180)
	if cos < 0.05 {
		cos = 0.05
	}
	dLon := km/(111.19*cos) + 1e-9
	return cellBox{
		minLat: int(math.Floor(p.Lat - dLat)),
		maxLat: int(math.Floor(p.Lat + dLat)),
		minLon: int(math.Floor(p.Lon - dLon)),
		maxLon: int(math.Floor(p.Lon + dLon)),
	}
}

// cellAt returns the cell at row la, unwrapped column lo. Every query
// walks its box row by row, west to east, and each cell's entries in index
// order; that visit order decides ties between equidistant entries.
func cellAt(la, lo int) cellKey {
	for lo < -180 {
		lo += 360
	}
	for lo >= 180 {
		lo -= 360
	}
	return cellKey{lat: la, lon: lo}
}

// Within returns all cities within km kilometres of p, nearest first.
func (g *Gazetteer) Within(p geo.Point, km float64) []City {
	type hit struct {
		c City
		d float64
	}
	var hits []hit
	b := boxAround(p, km)
	for la := b.minLat; la <= b.maxLat; la++ {
		for lo := b.minLon; lo <= b.maxLon; lo++ {
			for _, i := range g.cells[cellAt(la, lo)] {
				d := geo.DistanceKm(p, g.cities[i].Loc)
				if d <= km {
					hits = append(hits, hit{g.cities[i], d})
				}
			}
		}
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].d != hits[b].d {
			return hits[a].d < hits[b].d
		}
		return hits[a].c.Name < hits[b].c.Name
	})
	out := make([]City, len(hits))
	for i, h := range hits {
		out[i] = h.c
	}
	return out
}

// MostPopulousWithin returns the most populous city within km kilometres
// of p. ok is false if none exists. This is the paper's "loose" peak→city
// mapping primitive (§4.2).
func (g *Gazetteer) MostPopulousWithin(p geo.Point, km float64) (City, bool) {
	best := -1
	bestPop := -1
	bestName := ""
	b := boxAround(p, km)
	for la := b.minLat; la <= b.maxLat; la++ {
		for lo := b.minLon; lo <= b.maxLon; lo++ {
			for _, i := range g.cells[cellAt(la, lo)] {
				if geo.DistanceKm(p, g.cities[i].Loc) > km {
					continue
				}
				c := g.cities[i]
				if c.Pop > bestPop || (c.Pop == bestPop && c.Name < bestName) {
					best, bestPop, bestName = i, c.Pop, c.Name
				}
			}
		}
	}
	if best < 0 {
		return City{}, false
	}
	return g.cities[best], true
}

// Nearest returns the city closest to p within maxKm, breaking distance
// ties by name: the first entry of Within(p, maxKm), found without
// building or sorting that list. ok is false if none lies within maxKm.
func (g *Gazetteer) Nearest(p geo.Point, maxKm float64) (City, bool) {
	best := -1
	bestD := 0.0
	b := boxAround(p, maxKm)
	for la := b.minLat; la <= b.maxLat; la++ {
		for lo := b.minLon; lo <= b.maxLon; lo++ {
			for _, i := range g.cells[cellAt(la, lo)] {
				d := geo.DistanceKm(p, g.cities[i].Loc)
				if d <= maxKm && (best < 0 || d < bestD || (d == bestD && g.cities[i].Name < g.cities[best].Name)) {
					best, bestD = i, d
				}
			}
		}
	}
	if best < 0 {
		return City{}, false
	}
	return g.cities[best], true
}

// Find returns the first city with the given name and country. ok is false
// if absent.
func (g *Gazetteer) Find(name, country string) (City, bool) {
	for _, i := range g.byCountry[country] {
		if g.cities[i].Name == name {
			return g.cities[i], true
		}
	}
	return City{}, false
}
