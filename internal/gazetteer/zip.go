package gazetteer

import (
	"math"

	"eyeballas/internal/geo"
	"eyeballas/internal/rng"
)

// ZipCentroid is a synthetic postal-code centroid inside a city's metro
// area. The paper's geolocation databases resolve IPs to zip-code
// coordinates (§2: "all users in a given zip code are mapped to the same
// coordinates"); the synthetic databases in internal/geodb snap user
// locations to these centroids the same way.
type ZipCentroid struct {
	City    string // city name the zip belongs to
	Country string // ISO country code of the city
	Loc     geo.Point
}

// Zip centroids per city, close enough to real postal density.
const (
	peoplePerZip   int = 60000
	minZipsPerCity int = 3
	maxZipsPerCity int = 48
)

// SynthesizeZips deterministically generates zip centroids for every city
// in the gazetteer. Centroids are scattered within each city's metro
// radius with a density that decays away from the centre (triangular
// radial profile), mimicking real population layout.
func SynthesizeZips(g *Gazetteer, src *rng.Source) []ZipCentroid {
	var out []ZipCentroid
	for i := 0; i < g.Len(); i++ {
		c := g.City(i)
		s := src.SplitN("zips", i)
		n := min(max(c.Pop/peoplePerZip, minZipsPerCity), maxZipsPerCity)
		r := c.RadiusKm()
		for j := 0; j < n; j++ {
			// sqrt(u)*triangular pull toward centre: u1*u2 gives a
			// density linearly decreasing in radius.
			dist := r * s.Float64() * s.Float64()
			bearing := s.Range(0, 360)
			out = append(out, ZipCentroid{
				City:    c.Name,
				Country: c.Country,
				Loc:     geo.Destination(c.Loc, bearing, dist),
			})
		}
	}
	return out
}

// ZipIndex answers nearest-centroid queries, used by the synthetic
// geolocation databases to snap an exact user location to zip resolution.
type ZipIndex struct {
	zips  []ZipCentroid
	cells map[cellKey][]zipRef
}

// zipRef is a centroid as its cell stores it: the index into zips, plus
// the latitude in radians, its cosine and the longitude, computed as
// geo.DistanceKm computes them. A scan reads one packed record per
// candidate, and the distances it builds from these terms are
// bit-identical to geo.DistanceKm's.
type zipRef struct {
	lat, cos, lon float64
	i             int
}

// NewZipIndex builds an index over the given centroids.
func NewZipIndex(zips []ZipCentroid) *ZipIndex {
	idx := &ZipIndex{zips: append([]ZipCentroid(nil), zips...), cells: make(map[cellKey][]zipRef)}
	for i, z := range idx.zips {
		k := keyFor(z.Loc)
		lat := geo.Radians(z.Loc.Lat)
		idx.cells[k] = append(idx.cells[k], zipRef{lat: lat, cos: math.Cos(lat), lon: z.Loc.Lon, i: i})
	}
	return idx
}

// Len returns the number of centroids indexed.
func (z *ZipIndex) Len() int { return len(z.zips) }

// Nearest returns the centroid closest to p searching outward up to maxKm.
// ok is false if no centroid lies within maxKm.
func (z *ZipIndex) Nearest(p geo.Point, maxKm float64) (ZipCentroid, bool) {
	bestD := math.Inf(1)
	bestI := -1
	pLat := geo.Radians(p.Lat)
	pCos := math.Cos(pLat)
	// Search growing rings of cells so the common (dense) case stays cheap.
	for ring := 25.0; ring <= maxKm*2+25; ring *= 2 {
		limit := math.Min(ring, maxKm)
		b := boxAround(p, limit)
		for la := b.minLat; la <= b.maxLat; la++ {
			for lo := b.minLon; lo <= b.maxLon; lo++ {
				for _, r := range z.cells[cellAt(la, lo)] {
					d := geo.HaversineKm(geo.Haversine(pLat, pCos, r.lat, r.cos, geo.Radians(r.lon-p.Lon)))
					if d < bestD {
						bestD, bestI = d, r.i
					}
				}
			}
		}
		if bestI >= 0 && bestD <= limit {
			break
		}
		if limit >= maxKm {
			break
		}
	}
	if bestI < 0 || bestD > maxKm {
		return ZipCentroid{}, false
	}
	return z.zips[bestI], true
}

// KNearest returns up to k centroids within maxKm of p, nearest first.
// Real geolocation databases resolve the same user to different nearby
// postal codes; callers model that by choosing among the closest few.
func (z *ZipIndex) KNearest(p geo.Point, k int, maxKm float64) []ZipCentroid {
	out := make([]ZipCentroid, k)
	n := z.KNearestInto(p, maxKm, out)
	return out[:n]
}

// KNearestInto is the allocation-free variant of KNearest: it fills out
// (whose length sets k, at most 8) with up to k nearest centroids within
// maxKm and returns how many were found. Equidistant centroids keep their
// visit order (see cellAt). It first scans a tight radius and widens only
// if that finds fewer than k, which keeps the hot path (users in metro
// areas, zips nearby) cheap — this is the pipeline's innermost query.
func (z *ZipIndex) KNearestInto(p geo.Point, maxKm float64, out []ZipCentroid) int {
	const tightKm = 40
	if maxKm > tightKm {
		if n := z.kNearestScan(p, tightKm, out); n == len(out) {
			return n
		}
	}
	return z.kNearestScan(p, maxKm, out)
}

// pruneMargin is the relative slack by which a lower bound on a
// candidate's distance must exceed the scan's limit before the candidate
// is skipped unexamined. It sits six orders of magnitude above the
// rounding error of the handful of float operations behind a bound or a
// distance (~1e-15), so every skipped candidate is one the exact test
// would have rejected.
const pruneMargin = 1e-9

// pruneCuts returns the thresholds above which a candidate provably lies
// farther than limitKm: a latitude difference in radians, and a haversine
// value. With a = limitKm·(1+pruneMargin)/2R, the central angle of any
// point within the limit is below 2a, and its haversine is below
// sin²(a) <= a².
func pruneCuts(limitKm float64) (latCut, havCut float64) {
	a := limitKm * (1 + pruneMargin) / (2 * geo.EarthRadiusKm)
	return 2 * a, a * a
}

// havLowerBound is a sine-free lower bound on the haversine
// sin²(dLat/2) + cosProd·sin²(dLon/2), from sin x >= x - x³/6 for x >= 0.
// |dLat/2| <= π/2 keeps the latitude term's factor positive; the
// longitude term's is clamped at 0 for half-differences beyond √6.
func havLowerBound(dLat, dLon, cosProd float64) float64 {
	x := math.Abs(dLat) / 2
	y := math.Abs(dLon) / 2
	sx := x * (1 - x*x/6)
	sy := y * (1 - y*y/6)
	if sy < 0 {
		sy = 0
	}
	return sx*sx + cosProd*sy*sy
}

// kNearestScan keeps the k nearest centroids within maxKm of p among the
// cells of boxAround(p, maxKm), visited in cellAt order. A candidate is
// rejected when d > maxKm or, once k are held, when d >= dists[k-1]. Three
// checks skip most candidates before the arcsine, each only when a lower
// bound on d exceeds that limit by pruneMargin, so the rejection would
// have followed: the latitude difference (the central angle is never
// smaller), the sine-free haversine bound, and the exact haversine. The
// survivors' distances come from geo.Haversine and geo.HaversineKm, the
// kernel of geo.DistanceKm, so every accept/reject decision and every
// stored distance is what a plain geo.DistanceKm scan would produce.
func (z *ZipIndex) kNearestScan(p geo.Point, maxKm float64, out []ZipCentroid) int {
	k := len(out)
	// Fixed-size top-k by insertion; k is small (≤ 8 in practice).
	var dists [8]float64
	if k > len(dists) {
		k = len(dists)
		out = out[:k]
	}
	n := 0
	pLat := geo.Radians(p.Lat)
	pCos := math.Cos(pLat)
	latCut, havCut := pruneCuts(maxKm)
	b := boxAround(p, maxKm)
	for la := b.minLat; la <= b.maxLat; la++ {
		for lo := b.minLon; lo <= b.maxLon; lo++ {
			for _, r := range z.cells[cellAt(la, lo)] {
				dLat := r.lat - pLat
				if math.Abs(dLat) > latCut {
					continue
				}
				dLon := geo.Radians(r.lon - p.Lon)
				if havLowerBound(dLat, dLon, pCos*r.cos) > havCut {
					continue
				}
				h := geo.Haversine(pLat, pCos, r.lat, r.cos, dLon)
				if h > havCut {
					continue
				}
				d := geo.HaversineKm(h)
				if d > maxKm {
					continue
				}
				if n == k && d >= dists[k-1] {
					continue
				}
				// Insert in sorted position, dropping the last element
				// when full.
				pos := n
				if pos == k {
					pos = k - 1
				}
				for pos > 0 && dists[pos-1] > d {
					dists[pos] = dists[pos-1]
					out[pos] = out[pos-1]
					pos--
				}
				dists[pos] = d
				out[pos] = z.zips[r.i]
				if n < k {
					n++
				}
				if n == k {
					latCut, havCut = pruneCuts(dists[k-1])
				}
			}
		}
	}
	return n
}
