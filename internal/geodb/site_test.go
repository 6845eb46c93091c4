package geodb

import (
	"math"
	"slices"
	"testing"

	"eyeballas/internal/astopo"
	"eyeballas/internal/faults"
	"eyeballas/internal/geo"
	"eyeballas/internal/ipnet"
)

// sameRecord compares records with coordinates at the bit level, so the
// NaN coordinates of an injected corrupt row compare equal to
// themselves.
func sameRecord(a, b Record) bool {
	return a.City == b.City && a.State == b.State && a.Country == b.Country &&
		a.Region == b.Region && a.HasCity == b.HasCity &&
		math.Float64bits(a.Loc.Lat) == math.Float64bits(b.Loc.Lat) &&
		math.Float64bits(a.Loc.Lon) == math.Float64bits(b.Loc.Lon)
}

// checkShared asks a then b about one IP through a single site and
// requires exactly the records of two independent Locate calls.
func checkShared(t *testing.T, a, b *DB, ip ipnet.Addr, loc geo.Point) {
	t.Helper()
	site := Site{Loc: loc}
	gotA := a.LocateAt(ip, &site)
	gotB := b.LocateAt(ip, &site)
	if wantA := a.Locate(ip, loc); !sameRecord(gotA, wantA) {
		t.Fatalf("%s at %v: shared site %+v, Locate %+v", ip, loc, gotA, wantA)
	}
	if wantB := b.Locate(ip, loc); !sameRecord(gotB, wantB) {
		t.Fatalf("%s at %v: shared site %+v, Locate %+v", ip, loc, gotB, wantB)
	}
}

// TestLocateAtSharedSite: the pipeline hands one site to the primary and
// then the secondary database. Over every fixture peer, clean and with
// each geolocation fault armed, that gives exactly the records two
// independent Locate calls give.
func TestLocateAtSharedSite(t *testing.T) {
	w, peers := testSetup(t)
	for _, point := range []faults.Point{"", faults.GeoMiss, faults.GeoMissA, faults.GeoMissB, faults.GeoGarbage, faults.GeoNaN} {
		name := string(point)
		if name == "" {
			name = "clean"
		}
		t.Run(name, func(t *testing.T) {
			plan := faults.NewPlan(7)
			if point != "" {
				if err := plan.Set(point, 0.2); err != nil {
					t.Fatal(err)
				}
			}
			a := NewGeoCity(w).WithFaults(plan, faults.GeoMissA)
			b := NewIPLoc(w).WithFaults(plan, faults.GeoMissB)
			for _, p := range peers {
				checkShared(t, a, b, p.IP, p.TrueLoc)
			}
		})
	}
}

// TestLocateAtOtherWorldRecomputes: a site filled by a database over one
// world and then passed to a database over another world must not hand
// over the first world's zips.
func TestLocateAtOtherWorldRecomputes(t *testing.T) {
	w1, peers := testSetup(t)
	w2, err := astopo.Generate(astopo.SmallConfig(52))
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewGeoCity(w1), NewIPLoc(w2)
	differ := 0
	for _, p := range peers[:2000] {
		site := Site{Loc: p.TrueLoc}
		a.LocateAt(p.IP, &site)
		filled := site.zips == w1.Zips
		got := b.LocateAt(p.IP, &site)
		if want := b.Locate(p.IP, p.TrueLoc); !sameRecord(got, want) {
			t.Fatalf("%s: site from world 1 answered %+v in world 2, Locate %+v", p.IP, got, want)
		}
		k := len(zipWeights)
		if filled && !slices.Equal(w1.Zips.KNearest(p.TrueLoc, k, snapKm), w2.Zips.KNearest(p.TrueLoc, k, snapKm)) {
			differ++
		}
	}
	// The check above only bites where the worlds' nearest zips differ.
	if differ == 0 {
		t.Fatal("no peer whose nearest zips differ between the two worlds")
	}
}

// FuzzLocateShared: for any point and IP, a site shared by the two
// databases, in either order, answers what independent lookups answer.
func FuzzLocateShared(f *testing.F) {
	w := faultWorld(f)
	plan := faults.NewPlan(7)
	for _, p := range []faults.Point{faults.GeoMiss, faults.GeoGarbage, faults.GeoNaN} {
		if err := plan.Set(p, 0.05); err != nil {
			f.Fatal(err)
		}
	}
	a, b := NewGeoCity(w), NewIPLoc(w)
	fa := a.WithFaults(plan, faults.GeoMissA)
	f.Add(41.9, 12.5, uint32(1))        // Rome
	f.Add(48.2, 11.0, uint32(0xdeadbe)) // between Munich and Augsburg
	f.Add(35.0, -45.0, uint32(7))       // mid-Atlantic: no zip within reach
	f.Add(-17.8, 179.99, uint32(99))    // antimeridian, Fiji
	f.Add(89.9, 0.0, uint32(3))         // near the pole
	f.Fuzz(func(t *testing.T, lat, lon float64, ip uint32) {
		p := geo.Point{Lat: lat, Lon: lon}.Normalize()
		if !p.Valid() {
			return
		}
		checkShared(t, a, b, ipnet.Addr(ip), p)
		checkShared(t, b, a, ipnet.Addr(ip), p)
		checkShared(t, fa, b, ipnet.Addr(ip), p)
	})
}
