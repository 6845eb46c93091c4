package geodb

import (
	"math"
	"testing"

	"eyeballas/internal/astopo"
	"eyeballas/internal/faults"
	"eyeballas/internal/geo"
	"eyeballas/internal/ipnet"
)

func faultWorld(t testing.TB) *astopo.World {
	t.Helper()
	w, err := astopo.Generate(astopo.SmallConfig(51))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWithFaultsNilPlanIsSameDB: no plan (or an all-zero one) must hand
// back the identical *DB — the unfaulted path provably untouched.
func TestWithFaultsNilPlanIsSameDB(t *testing.T) {
	w := faultWorld(t)
	db := NewGeoCity(w)
	if db.WithFaults(nil, faults.GeoMissA) != db {
		t.Error("nil plan returned a copy")
	}
	p := faults.NewPlan(1) // no rates set
	if db.WithFaults(p, faults.GeoMissA) != db {
		t.Error("all-zero plan returned a copy")
	}
	// A plan with only unrelated points set is also a no-op for geodb.
	if err := p.Set(faults.OriginMiss, 0.5); err != nil {
		t.Fatal(err)
	}
	if db.WithFaults(p, faults.GeoMissA) != db {
		t.Error("plan without geo points returned a copy")
	}
}

// TestWithFaultsMissRateAndIndependence: geo-miss must raise the miss
// rate by roughly the injected amount, deterministically, and the two
// databases must miss on (mostly) different IPs.
func TestWithFaultsMissRateAndIndependence(t *testing.T) {
	w := faultWorld(t)
	p := faults.NewPlan(7)
	if err := p.Set(faults.GeoMiss, 0.3); err != nil {
		t.Fatal(err)
	}
	a := NewGeoCity(w).WithFaults(p, faults.GeoMissA)
	b := NewIPLoc(w).WithFaults(p, faults.GeoMissB)
	loc := geo.Point{Lat: 45, Lon: 9}
	const n = 20000
	missA, missB, missBoth := 0, 0, 0
	for ip := 0; ip < n; ip++ {
		ra := a.Locate(ipnet.Addr(ip), loc)
		rb := b.Locate(ipnet.Addr(ip), loc)
		if !ra.HasCity {
			missA++
		}
		if !rb.HasCity {
			missB++
		}
		if !ra.HasCity && !rb.HasCity {
			missBoth++
		}
		// Determinism: a second lookup answers identically.
		if a.Locate(ipnet.Addr(ip), loc) != ra {
			t.Fatalf("ip %d: repeated lookup disagrees", ip)
		}
	}
	// Baseline PNoCity is ~1.5–1.8%; injected 30% dominates.
	fa, fb := float64(missA)/n, float64(missB)/n
	if fa < 0.25 || fa > 0.40 || fb < 0.25 || fb > 0.40 {
		t.Errorf("miss fracs %.3f %.3f, want ≈0.3", fa, fb)
	}
	// Independent sets: joint miss ≈ product, nowhere near min(fa, fb).
	joint := float64(missBoth) / n
	if joint > 0.2 {
		t.Errorf("joint miss frac %.3f — databases missing on the same IPs", joint)
	}
}

// TestWithFaultsMissPointTargetsOneDB: geo-miss-b must degrade only the
// database constructed with that point.
func TestWithFaultsMissPointTargetsOneDB(t *testing.T) {
	w := faultWorld(t)
	p := faults.NewPlan(9)
	if err := p.Set(faults.GeoMissB, 0.5); err != nil {
		t.Fatal(err)
	}
	a := NewGeoCity(w).WithFaults(p, faults.GeoMissA)
	b := NewIPLoc(w).WithFaults(p, faults.GeoMissB)
	loc := geo.Point{Lat: 45, Lon: 9}
	const n = 10000
	missA, missB := 0, 0
	for ip := 0; ip < n; ip++ {
		if !a.Locate(ipnet.Addr(ip), loc).HasCity {
			missA++
		}
		if !b.Locate(ipnet.Addr(ip), loc).HasCity {
			missB++
		}
	}
	if fa := float64(missA) / n; fa > 0.05 {
		t.Errorf("primary miss frac %.3f under geo-miss-b only", fa)
	}
	if fb := float64(missB) / n; fb < 0.45 || fb > 0.60 {
		t.Errorf("secondary miss frac %.3f, want ≈0.5", fb)
	}
}

// TestWithFaultsGarbageAndNaN: the corruption modes must answer
// HasCity records whose coordinates are detectably invalid.
func TestWithFaultsGarbageAndNaN(t *testing.T) {
	w := faultWorld(t)
	p := faults.NewPlan(11)
	if err := p.Set(faults.GeoGarbage, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := p.Set(faults.GeoNaN, 0.25); err != nil {
		t.Fatal(err)
	}
	db := NewGeoCity(w).WithFaults(p, faults.GeoMissA)
	loc := geo.Point{Lat: 45, Lon: 9}
	garbage, nans := 0, 0
	const n = 10000
	for ip := 0; ip < n; ip++ {
		rec := db.Locate(ipnet.Addr(ip), loc)
		if !rec.HasCity {
			continue
		}
		switch {
		case math.IsNaN(rec.Loc.Lat) || math.IsNaN(rec.Loc.Lon):
			nans++
		case math.Abs(rec.Loc.Lat) > 90 || math.Abs(rec.Loc.Lon) > 180:
			garbage++
		}
	}
	if garbage == 0 || nans == 0 {
		t.Fatalf("garbage=%d nans=%d over %d lookups — injectors never fired", garbage, nans, n)
	}
	// NaN wins precedence over garbage where both fire; rough shares only.
	if f := float64(garbage) / n; f < 0.2 {
		t.Errorf("garbage frac %.3f, want near 0.375 (0.5 of non-NaN)", f)
	}
}
