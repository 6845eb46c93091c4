// Package geo provides geographic primitives used throughout the eyeball-AS
// pipeline: points on the sphere, great-circle distance, local projections
// into a flat km-space suitable for kernel density estimation, and bounding
// boxes.
//
// Conventions: latitude and longitude are in decimal degrees (WGS84-like
// spherical Earth), latitude in [-90, 90], longitude in [-180, 180).
// Distances are in kilometres.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius in kilometres used for all
// spherical computations.
const EarthRadiusKm = 6371.0088

// Point is a location on the Earth's surface in decimal degrees.
type Point struct {
	Lat float64 // latitude, degrees, positive north
	Lon float64 // longitude, degrees, positive east
}

// String renders the point as "lat,lon" with 4 decimal places (~11 m).
func (p Point) String() string {
	return fmt.Sprintf("%.4f,%.4f", p.Lat, p.Lon)
}

// Valid reports whether the point lies in the canonical coordinate ranges.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon < 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// NormalizeLon wraps a longitude into [-180, 180). NaN and ±Inf pass
// through as NaN (Valid rejects them); cleaning garbage coordinates is
// the ingestion layer's job, not a silent repair here.
func NormalizeLon(lon float64) float64 {
	lon = math.Mod(lon+180, 360)
	if lon < 0 {
		lon += 360
	}
	lon -= 180
	// The wrap can land exactly on the excluded seam: for inputs one ulp
	// below -180, lon+360 rounds to 360 (round-to-even on the halfway
	// case) and the subtraction yields +180 — outside the contract and
	// rejected by Point.Valid. Same meridian, canonical sign.
	if lon >= 180 {
		lon = -180
	}
	return lon
}

// ClampLat clamps a latitude into [-90, 90]. NaN passes through (the
// comparisons are false), mirroring NormalizeLon: invalid stays
// visibly invalid.
func ClampLat(lat float64) float64 {
	if lat > 90 {
		return 90
	}
	if lat < -90 {
		return -90
	}
	return lat
}

// Normalize returns the point with longitude wrapped and latitude clamped.
func (p Point) Normalize() Point {
	return Point{Lat: ClampLat(p.Lat), Lon: NormalizeLon(p.Lon)}
}

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

func rad2deg(r float64) float64 { return r * 180 / math.Pi }

// DistanceKm returns the great-circle (haversine) distance between a and b
// in kilometres.
func DistanceKm(a, b Point) float64 {
	lat1 := Radians(a.Lat)
	lat2 := Radians(b.Lat)
	return HaversineKm(Haversine(lat1, math.Cos(lat1), lat2, math.Cos(lat2), Radians(b.Lon-a.Lon)))
}

// Haversine returns the haversine of the central angle between two
// points, hav(θ) = sin²(θ/2), clamped to 1. lat1 and lat2 are the
// latitudes in radians, cos1 and cos2 their cosines, and dLon is the
// longitude difference lon2-lon1 in radians. It is DistanceKm's own
// kernel: a caller that precomputes a latitude with Radians and its cosine
// with math.Cos gets bit-identical distances from HaversineKm, and can
// compare h against a threshold before paying for the arcsine.
func Haversine(lat1, cos1, lat2, cos2, dLon float64) float64 {
	sinLat := math.Sin((lat2 - lat1) / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + cos1*cos2*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return h
}

// HaversineKm converts a haversine value from Haversine to a great-circle
// distance in kilometres.
func HaversineKm(h float64) float64 {
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// Destination returns the point reached by travelling distKm kilometres
// from p along the given initial bearing (degrees clockwise from north).
func Destination(p Point, bearingDeg, distKm float64) Point {
	lat1 := Radians(p.Lat)
	lon1 := Radians(p.Lon)
	brng := Radians(bearingDeg)
	dr := distKm / EarthRadiusKm

	sinLat2 := math.Sin(lat1)*math.Cos(dr) + math.Cos(lat1)*math.Sin(dr)*math.Cos(brng)
	lat2 := math.Asin(sinLat2)
	y := math.Sin(brng) * math.Sin(dr) * math.Cos(lat1)
	x := math.Cos(dr) - math.Sin(lat1)*sinLat2
	lon2 := lon1 + math.Atan2(y, x)

	return Point{Lat: rad2deg(lat2), Lon: NormalizeLon(rad2deg(lon2))}
}

// Midpoint returns the spherical midpoint of a and b.
func Midpoint(a, b Point) Point {
	lat1 := Radians(a.Lat)
	lon1 := Radians(a.Lon)
	lat2 := Radians(b.Lat)
	dLon := Radians(b.Lon - a.Lon)

	bx := math.Cos(lat2) * math.Cos(dLon)
	by := math.Cos(lat2) * math.Sin(dLon)
	lat3 := math.Atan2(math.Sin(lat1)+math.Sin(lat2),
		math.Sqrt((math.Cos(lat1)+bx)*(math.Cos(lat1)+bx)+by*by))
	lon3 := lon1 + math.Atan2(by, math.Cos(lat1)+bx)

	return Point{Lat: rad2deg(lat3), Lon: NormalizeLon(rad2deg(lon3))}
}

// Centroid returns the arithmetic centroid of the points in degree space
// (adequate for the regional clusters this library handles; not meaningful
// across the antimeridian). It returns false if pts is empty.
func Centroid(pts []Point) (Point, bool) {
	if len(pts) == 0 {
		return Point{}, false
	}
	var sLat, sLon float64
	for _, p := range pts {
		sLat += p.Lat
		sLon += p.Lon
	}
	n := float64(len(pts))
	return Point{Lat: sLat / n, Lon: sLon / n}, true
}
