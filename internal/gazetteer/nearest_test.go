package gazetteer

import (
	"math"
	"sort"
	"testing"

	"eyeballas/internal/geo"
	"eyeballas/internal/rng"
)

// zipHit is one brute-force answer: a zip index and its distance.
type zipHit struct {
	i int
	d float64
}

// bruteForceZips is the reference KNearestInto is checked against: every
// zip within maxKm by geo.DistanceKm, stable-sorted by distance, so
// equidistant zips stay in index order. A zip more than maxKm/100 degrees
// of latitude away is out of range without the trigonometry: a degree of
// latitude is 111.2 km of great circle.
func bruteForceZips(zips []ZipCentroid, p geo.Point, maxKm float64) []zipHit {
	var hits []zipHit
	for i, z := range zips {
		if math.Abs(z.Loc.Lat-p.Lat) > maxKm/100 {
			continue
		}
		if d := geo.DistanceKm(p, z.Loc); d <= maxKm {
			hits = append(hits, zipHit{i, d})
		}
	}
	sort.SliceStable(hits, func(a, b int) bool { return hits[a].d < hits[b].d })
	return hits
}

// checkKNearest compares KNearestInto(p, maxKm) with k slots against the
// brute-force hits, which must cover at least maxKm.
func checkKNearest(t *testing.T, idx *ZipIndex, zips []ZipCentroid, hits []zipHit, p geo.Point, k int, maxKm float64) {
	t.Helper()
	var want []int
	for _, h := range hits {
		if h.d > maxKm || len(want) == k {
			break
		}
		want = append(want, h.i)
	}
	var buf [8]ZipCentroid
	n := idx.KNearestInto(p, maxKm, buf[:k])
	if n != len(want) {
		t.Fatalf("p=%v k=%d maxKm=%v: %d zips, brute force %d", p, k, maxKm, n, len(want))
	}
	for j, i := range want {
		if buf[j] != zips[i] {
			t.Fatalf("p=%v k=%d maxKm=%v rank %d: %v (%.9f km), brute force zip %d %v (%.9f km)",
				p, k, maxKm, j, buf[j].Loc, geo.DistanceKm(p, buf[j].Loc), i, zips[i].Loc, hits[j].d)
		}
	}
}

var oracleMaxKm = []float64{10, 40, 120, 500}

var oracleRegions = []Region{NA, EU, AS, SA, AF, OC}

// TestKNearestMatchesBruteForce checks the pruned scan against the brute
// force zip for zip: 3,200 seeded points in every region × k = 1…8 ×
// maxKm ∈ {10, 40, 120, 500}, 102,400 queries. A quarter of the points
// are drawn over the whole map, most of them far from any zip; the rest
// sit 0–40, 40–250 or 0–600 km from a random city of a region, so the
// 40 km first pass both succeeds and falls back to the wide scan.
func TestKNearestMatchesBruteForce(t *testing.T) {
	g := Default()
	zips := SynthesizeZips(g, rng.New(5))
	idx := NewZipIndex(zips)
	byRegion := map[Region][]City{}
	for _, r := range oracleRegions {
		byRegion[r] = g.InRegion(r)
	}
	s := rng.New(13)
	const points = 3200
	wide := 0 // points with a zip within 500 km but none within 40 km
	for q := 0; q < points; q++ {
		var p geo.Point
		if q%4 == 0 {
			p = geo.Point{Lat: s.Range(-60, 75), Lon: s.Range(-180, 180)}
		} else {
			cities := byRegion[oracleRegions[(q/4)%len(oracleRegions)]]
			c := cities[s.Intn(len(cities))]
			lo, hi := [4]float64{0, 0, 40, 0}[q%4], [4]float64{0, 40, 250, 600}[q%4]
			p = geo.Destination(c.Loc, s.Range(0, 360), s.Range(lo, hi))
		}
		hits := bruteForceZips(zips, p, 500)
		if len(hits) > 0 && hits[0].d > 40 {
			wide++
		}
		for _, maxKm := range oracleMaxKm {
			for k := 1; k <= 8; k++ {
				checkKNearest(t, idx, zips, hits, p, k, maxKm)
			}
		}
	}
	if wide < points/10 {
		t.Errorf("only %d of %d points exercise the wide-scan fallback", wide, points)
	}
}

// FuzzZipKNearest runs the brute-force comparison on fuzzed points, k
// and radii.
func FuzzZipKNearest(f *testing.F) {
	g := Default()
	zips := SynthesizeZips(g, rng.New(5))
	idx := NewZipIndex(zips)
	f.Add(41.9, 12.5, uint8(3), uint8(2))    // Rome
	f.Add(48.2, 11.0, uint8(7), uint8(3))    // between Munich and Augsburg
	f.Add(35.0, -45.0, uint8(0), uint8(3))   // mid-Atlantic
	f.Add(-17.8, 179.99, uint8(5), uint8(3)) // antimeridian, Fiji
	f.Add(64.1, -21.9, uint8(7), uint8(1))   // Reykjavik
	f.Add(89.9, 0.0, uint8(1), uint8(0))     // near the pole
	f.Fuzz(func(t *testing.T, lat, lon float64, kb, kmb uint8) {
		p := geo.Point{Lat: lat, Lon: lon}.Normalize()
		if !p.Valid() {
			return
		}
		maxKm := oracleMaxKm[int(kmb)%len(oracleMaxKm)]
		checkKNearest(t, idx, zips, bruteForceZips(zips, p, maxKm), p, 1+int(kb)%8, maxKm)
	})
}

// TestNearestMatchesWithin checks the allocation-free Nearest against the
// first entry of the sorted Within list, hits and misses alike.
func TestNearestMatchesWithin(t *testing.T) {
	g := Default()
	s := rng.New(21)
	found := 0
	for q := 0; q < 4000; q++ {
		c := g.City(s.Intn(g.Len()))
		p := geo.Destination(c.Loc, s.Range(0, 360), s.Range(0, 300))
		km := []float64{5, 40, 120, 150, 500}[q%5]
		want := g.Within(p, km)
		got, ok := g.Nearest(p, km)
		if ok != (len(want) > 0) {
			t.Fatalf("p=%v km=%v: Nearest ok=%v, Within has %d", p, km, ok, len(want))
		}
		if ok {
			found++
			if got != want[0] {
				t.Fatalf("p=%v km=%v: Nearest %v, Within[0] %v", p, km, got, want[0])
			}
		}
	}
	if found < 1000 || found == 4000 {
		t.Errorf("%d of 4000 probes found a city; want both hits and misses", found)
	}
}

func TestNearestAllocs(t *testing.T) {
	g := Default()
	rome, _ := g.Find("Rome", "IT")
	p := geo.Destination(rome.Loc, 10, 12)
	if n := testing.AllocsPerRun(100, func() { g.Nearest(p, 150) }); n != 0 {
		t.Errorf("Nearest allocates %v times per call", n)
	}
}
