// Package geodb provides synthetic IP-geolocation databases standing in
// for the paper's MaxMind GeoIP City and Hexasoft IP2Location DB-15 (§2):
// each maps an IP address to a (city, state, country, coordinates) record
// at zip-code resolution, with its own independent error model.
//
// The pipeline uses one database as the location reference and the
// distance between the two databases' answers as the per-IP geolocation
// error estimate, exactly as §2 prescribes. Because the two error models
// are independently seeded, the cross-database distance has the structure
// the paper's filters rely on: small for correctly-located users (zip
// scatter), moderate for wrong-nearby-city errors, and large for the
// far-outlier tail the 100 km cut removes.
package geodb

import (
	"hash/fnv"

	"eyeballas/internal/astopo"
	"eyeballas/internal/faults"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/rng"
)

// Record is one geolocation answer, the paper's
// (city, state, country, longitude, latitude) tuple.
type Record struct {
	City    string
	State   string
	Country string
	Region  gazetteer.Region
	Loc     geo.Point
	// HasCity is false when the database has no city-level entry for the
	// IP; the pipeline drops such peers (§2 removed 2.4M of them).
	HasCity bool
}

// ErrorModel parameterizes a database's failure modes. Probabilities are
// evaluated in order: NoCity, Far, Nearby; the remainder is the correct
// case (snap to the true metro's nearest zip centroid).
type ErrorModel struct {
	PNoCity  float64 // no city-level record
	PFar     float64 // gross outlier: a city far away in the same region
	PNearby  float64 // wrong neighbouring city
	NearbyKm float64 // radius for the wrong-neighbour draw
	FarMinKm float64 // minimum distance of a gross outlier
}

// DB is one synthetic geolocation database.
type DB struct {
	Name  string
	w     *astopo.World
	model ErrorModel
	seed  uint64
	// regionCities caches per-region city lists for the far-outlier
	// mode; rebuilding them per lookup would dominate that path.
	regionCities map[gazetteer.Region][]gazetteer.City

	// Fault injection (see WithFaults). All nil on an unfaulted
	// database, where Locate pays exactly four nil checks.
	faultSalt   uint64
	injMissBoth *faults.Injector
	injMissOnly *faults.Injector
	injGarbage  *faults.Injector
	injNaN      *faults.Injector
}

// New builds a database over the world's geography. The name seeds the
// error draws, so differently-named databases err independently.
func New(w *astopo.World, name string, model ErrorModel) *DB {
	h := fnv.New64a()
	h.Write([]byte(name))
	db := &DB{Name: name, w: w, model: model, seed: w.Seed ^ h.Sum64(),
		regionCities: make(map[gazetteer.Region][]gazetteer.City)}
	for _, r := range []gazetteer.Region{gazetteer.NA, gazetteer.EU, gazetteer.AS,
		gazetteer.SA, gazetteer.AF, gazetteer.OC} {
		db.regionCities[r] = w.Gazetteer.InRegion(r)
	}
	return db
}

// NewGeoCity returns the primary reference database (MaxMind GeoIP City
// analogue): mostly correct, small wrong-neighbour rate, thin far tail.
func NewGeoCity(w *astopo.World) *DB {
	return New(w, "geocity", ErrorModel{
		PNoCity: 0.015, PFar: 0.008, PNearby: 0.020,
		NearbyKm: 150, FarMinKm: 300,
	})
}

// NewIPLoc returns the secondary database (IP2Location DB-15 analogue):
// slightly noisier, independently seeded.
func NewIPLoc(w *astopo.World) *DB {
	return New(w, "iploc", ErrorModel{
		PNoCity: 0.018, PFar: 0.015, PNearby: 0.060,
		NearbyKm: 150, FarMinKm: 300,
	})
}

// Site is one peer's true location plus the part of its lookup that no
// database's error model touches: the zip centroids nearest to it. Every
// database snaps a correctly-located user to one of the same four
// nearest centroids, so a caller that asks several databases about the
// same peer hands them one Site and the search runs once. The search
// runs on first use, and the site remembers the index that answered
// it, so a database over another world searches again instead of
// reusing it. Loc must not change after the first LocateAt: use a new
// Site for a new location. A Site is not safe for concurrent use.
type Site struct {
	Loc geo.Point

	zips *gazetteer.ZipIndex // index that filled near; nil until first use
	n    int
	near [len(zipWeights)]gazetteer.ZipCentroid
}

// snapKm is the radius within which a correct record snaps to a zip.
const snapKm = 120

// nearestZips returns up to four zip centroids within snapKm of the
// site, nearest first, searching idx only if it did not answer before.
func (s *Site) nearestZips(idx *gazetteer.ZipIndex) []gazetteer.ZipCentroid {
	if s.zips != idx {
		s.n = idx.KNearestInto(s.Loc, snapKm, s.near[:])
		s.zips = idx
	}
	return s.near[:s.n]
}

// Locate answers the database's record for an IP whose user truly sits at
// trueLoc. Answers are deterministic per (database, IP): repeated lookups
// agree, as they would against a static database file.
//
// trueLoc is the ground truth the synthetic database was "built from"
// (user surveys, registry data — §4.3); a real database file is a frozen
// function of the same information.
func (db *DB) Locate(ip ipnet.Addr, trueLoc geo.Point) Record {
	return db.LocateAt(ip, &Site{Loc: trueLoc})
}

// LocateAt is Locate for a user at site.Loc, reusing the site's zip
// search when another database over the same world already ran it. The
// answer is exactly Locate(ip, site.Loc)'s.
func (db *DB) LocateAt(ip ipnet.Addr, site *Site) Record {
	if db.injMissBoth != nil || db.injMissOnly != nil || db.injGarbage != nil || db.injNaN != nil {
		if rec, injected := db.injectFault(ip); injected {
			return rec
		}
	}
	// A Source per IP would dominate the build with allocations, so the
	// draws come from a splitmix64 stream seeded per (database, IP).
	r := rng.NewSplitMix(db.seed ^ (uint64(ip) * rng.Gamma))
	s := &r
	m := db.model
	roll := s.Float64()
	switch {
	case roll < m.PNoCity:
		return Record{}
	case roll < m.PNoCity+m.PFar:
		return db.farRecord(s, site.Loc)
	case roll < m.PNoCity+m.PFar+m.PNearby:
		if rec, ok := db.nearbyWrongRecord(s, site.Loc); ok {
			return rec
		}
		return db.correctRecord(s, site)
	default:
		return db.correctRecord(s, site)
	}
}

// correctRecord snaps the true location to a zip centroid of the true
// metro area — the zip-code resolution of real databases. Databases built
// from different sources resolve the same user to different nearby postal
// codes, so each database picks independently among the closest few.
func (db *DB) correctRecord(s *rng.SplitMix, site *Site) Record {
	near := site.nearestZips(db.w.Zips)
	if len(near) == 0 {
		return Record{}
	}
	// Weight toward the truly-nearest zip but allow neighbours.
	zip := near[weightedZip(s, len(near))]
	city, ok := db.w.Gazetteer.Find(zip.City, zip.Country)
	if !ok {
		return Record{}
	}
	return recordFor(city, zip.Loc)
}

// zipWeights biases the zip choice toward the nearest centroid.
var zipWeights = [4]float64{0.55, 0.25, 0.13, 0.07}

func weightedZip(s *rng.SplitMix, n int) int {
	total := 0.0
	for i := 0; i < n; i++ {
		total += zipWeights[i]
	}
	u := s.Float64() * total
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += zipWeights[i]
		if u < acc {
			return i
		}
	}
	return n - 1
}

// nearbyWrongRecord attributes the user to a different city within
// NearbyKm, snapped to one of that city's zips.
func (db *DB) nearbyWrongRecord(s *rng.SplitMix, trueLoc geo.Point) (Record, bool) {
	candidates := db.w.Gazetteer.Within(trueLoc, db.model.NearbyKm)
	trueCity, _ := db.w.Gazetteer.Nearest(trueLoc, 120)
	var wrong []gazetteer.City
	for _, c := range candidates {
		// Satellite towns of the true metro carry the metro's label, so
		// mapping there is not an error.
		if c.MetroName() != trueCity.MetroName() || c.Country != trueCity.Country {
			wrong = append(wrong, c)
		}
	}
	if len(wrong) == 0 {
		return Record{}, false
	}
	c := wrong[s.Next()%uint64(len(wrong))]
	zip, ok := db.w.Zips.Nearest(c.Loc, c.RadiusKm()+10)
	loc := c.Loc
	if ok {
		loc = zip.Loc
	}
	return recordFor(c, loc), true
}

// farRecord is the gross-outlier mode: the IP is attributed to a distant
// city in the same continental region (e.g. a stale registry entry at the
// ISP's headquarters).
func (db *DB) farRecord(s *rng.SplitMix, trueLoc geo.Point) Record {
	trueCity, ok := db.w.Gazetteer.Nearest(trueLoc, 150)
	region := gazetteer.EU
	if ok {
		region = trueCity.Region
	}
	cities := db.regionCities[region]
	if len(cities) == 0 {
		cities = db.regionCities[gazetteer.EU]
	}
	for try := 0; try < 16; try++ {
		c := cities[s.Next()%uint64(len(cities))]
		if geo.DistanceKm(c.Loc, trueLoc) >= db.model.FarMinKm {
			return recordFor(c, c.Loc)
		}
	}
	// Dense-region fallback: report the region's largest city.
	return recordFor(cities[0], cities[0].Loc)
}

func recordFor(c gazetteer.City, loc geo.Point) Record {
	return Record{
		// Commercial databases label suburban users with the metro, not
		// the satellite town (satellite towns inherit their parent's
		// administrative labels).
		City:    c.MetroName(),
		State:   c.State,
		Country: c.Country,
		Region:  c.Region,
		Loc:     loc,
		HasCity: true,
	}
}

// CrossError returns the distance in km between two database answers for
// the same IP — the paper's per-IP geolocation error estimate. ok is
// false if either database lacks a city-level record.
func CrossError(a, b Record) (float64, bool) {
	if !a.HasCity || !b.HasCity {
		return 0, false
	}
	return geo.DistanceKm(a.Loc, b.Loc), true
}
