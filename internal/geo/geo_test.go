package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDistanceKnownPairs(t *testing.T) {
	// Reference distances computed from the haversine formula with the
	// mean Earth radius; cross-checked against public great-circle
	// calculators to within a few km.
	cases := []struct {
		name string
		a, b Point
		want float64 // km
		tol  float64
	}{
		{"rome-milan", Point{41.9028, 12.4964}, Point{45.4642, 9.19}, 477, 5},
		{"nyc-la", Point{40.7128, -74.0060}, Point{34.0522, -118.2437}, 3936, 10},
		{"london-paris", Point{51.5074, -0.1278}, Point{48.8566, 2.3522}, 344, 4},
		{"same-point", Point{10, 10}, Point{10, 10}, 0, 1e-9},
		{"antipodal-ish", Point{0, 0}, Point{0, 179.9}, EarthRadiusKm * math.Pi * 179.9 / 180, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := DistanceKm(c.a, c.b)
			if !almostEq(got, c.want, c.tol) {
				t.Errorf("DistanceKm(%v,%v) = %.2f, want %.2f ± %.2f", c.a, c.b, got, c.want, c.tol)
			}
		})
	}
}

// referenceDistanceKm is the haversine written out as one expression.
// DistanceKm must equal it bit for bit: the zip index builds distances
// from the same Haversine/HaversineKm kernel with precomputed latitude
// terms, and a changed bit would move a tie between two centroids.
func referenceDistanceKm(a, b Point) float64 {
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	sinLat := math.Sin((lat2 - lat1) / 2)
	sinLon := math.Sin((b.Lon - a.Lon) * math.Pi / 180 / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

func TestDistanceMatchesReferenceBits(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{ClampLat(math.Mod(lat1, 90)), NormalizeLon(lon1)}
		b := Point{ClampLat(math.Mod(lat2, 90)), NormalizeLon(lon2)}
		return math.Float64bits(DistanceKm(a, b)) == math.Float64bits(referenceDistanceKm(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{ClampLat(math.Mod(lat1, 90)), NormalizeLon(lon1)}
		b := Point{ClampLat(math.Mod(lat2, 90)), NormalizeLon(lon2)}
		d1 := DistanceKm(a, b)
		d2 := DistanceKm(b, a)
		return almostEq(d1, d2, 1e-9) && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2, lat3, lon3 float64) bool {
		a := Point{ClampLat(math.Mod(lat1, 90)), NormalizeLon(lon1)}
		b := Point{ClampLat(math.Mod(lat2, 90)), NormalizeLon(lon2)}
		c := Point{ClampLat(math.Mod(lat3, 90)), NormalizeLon(lon3)}
		return DistanceKm(a, c) <= DistanceKm(a, b)+DistanceKm(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	// Travelling d km away must land exactly d km away (great circle).
	f := func(latSeed, lonSeed, bearingSeed, distSeed float64) bool {
		p := Point{ClampLat(math.Mod(latSeed, 80)), NormalizeLon(lonSeed)}
		bearing := math.Mod(math.Abs(bearingSeed), 360)
		dist := math.Mod(math.Abs(distSeed), 2000)
		q := Destination(p, bearing, dist)
		return almostEq(DistanceKm(p, q), dist, 1e-6*dist+1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestinationCardinal(t *testing.T) {
	p := Point{Lat: 40, Lon: 20}
	north := Destination(p, 0, 111.195) // ~1 degree of latitude
	if !almostEq(north.Lat, 41, 0.01) || !almostEq(north.Lon, 20, 0.01) {
		t.Errorf("north destination = %v, want ~41,20", north)
	}
	east := Destination(p, 90, 100)
	if !almostEq(east.Lat, 40, 0.05) || east.Lon <= 20 {
		t.Errorf("east destination = %v, want lat~40 lon>20", east)
	}
}

func TestMidpoint(t *testing.T) {
	a := Point{40, 10}
	b := Point{50, 10}
	m := Midpoint(a, b)
	if !almostEq(m.Lat, 45, 0.01) || !almostEq(m.Lon, 10, 0.01) {
		t.Errorf("Midpoint = %v, want 45,10", m)
	}
	// Midpoint is equidistant from both ends.
	if !almostEq(DistanceKm(a, m), DistanceKm(b, m), 1e-6) {
		t.Error("midpoint not equidistant")
	}
}

func TestNormalizeLon(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {180, -180}, {-180, -180}, {190, -170}, {-190, 170},
		{360, 0}, {540, -180}, {-540, -180}, {179.9, 179.9},
	}
	for _, c := range cases {
		if got := NormalizeLon(c.in); !almostEq(got, c.want, 1e-9) {
			t.Errorf("NormalizeLon(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalizeLonRange(t *testing.T) {
	f := func(lon float64) bool {
		if math.IsNaN(lon) || math.IsInf(lon, 0) {
			return true
		}
		got := NormalizeLon(lon)
		return got >= -180 && got < 180
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointValid(t *testing.T) {
	if !(Point{45, 45}).Valid() {
		t.Error("45,45 should be valid")
	}
	for _, p := range []Point{{91, 0}, {-91, 0}, {0, 180}, {0, -181}, {math.NaN(), 0}} {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}

func TestCentroid(t *testing.T) {
	if _, ok := Centroid(nil); ok {
		t.Error("empty centroid should report !ok")
	}
	c, ok := Centroid([]Point{{0, 0}, {10, 10}})
	if !ok || !almostEq(c.Lat, 5, 1e-9) || !almostEq(c.Lon, 5, 1e-9) {
		t.Errorf("Centroid = %v, want 5,5", c)
	}
}
