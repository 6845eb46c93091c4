package users

import (
	"math"
	"testing"

	"eyeballas/internal/astopo"
	"eyeballas/internal/geo"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/rng"
)

func worldAndPlacer(t *testing.T) (*astopo.World, *Placer) {
	t.Helper()
	w, err := astopo.Generate(astopo.SmallConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	return w, NewPlacer(w)
}

func TestPlaceNearPoPs(t *testing.T) {
	w, pl := worldAndPlacer(t)
	for _, a := range w.Eyeballs()[:10] {
		s := rng.New(1).SplitN("place", int(a.ASN))
		for i := 0; i < 200; i++ {
			loc := pl.Place(a, s)
			if !loc.Valid() {
				t.Fatalf("invalid location %v", loc)
			}
			// Within suburbanReach of some user-serving PoP.
			ok := false
			for _, p := range a.UserPoPs() {
				if geo.DistanceKm(loc, p.City.Loc) <= p.City.RadiusKm()*suburbanReach+1 {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("AS %d user at %v far from all PoPs", a.ASN, loc)
			}
		}
	}
}

func TestPlaceRespectsShares(t *testing.T) {
	w, pl := worldAndPlacer(t)
	// Find an eyeball with >= 2 user PoPs and a dominant one.
	var target *astopo.AS
	for _, a := range w.Eyeballs() {
		if len(a.UserPoPs()) >= 2 {
			target = a
			break
		}
	}
	if target == nil {
		t.Skip("no multi-PoP eyeball in this small world")
	}
	pops := target.UserPoPs()
	counts := make([]int, len(pops))
	s := rng.New(2)
	n := 8000
	for i := 0; i < n; i++ {
		loc := pl.Place(target, s)
		best, bestD := -1, 1e18
		for j, p := range pops {
			if d := geo.DistanceKm(loc, p.City.Loc); d < bestD {
				best, bestD = j, d
			}
		}
		counts[best]++
	}
	for j, p := range pops {
		got := float64(counts[j]) / float64(n)
		if p.Share > 0.25 && (got < p.Share*0.5 || got > p.Share*1.6) {
			t.Errorf("PoP %s share %.3f, observed %.3f", p.City.Name, p.Share, got)
		}
	}
}

func TestIPForInsidePrefixes(t *testing.T) {
	w, pl := worldAndPlacer(t)
	s := rng.New(3)
	for _, a := range w.Eyeballs()[:10] {
		for i := 0; i < 100; i++ {
			ip := pl.IPFor(a, s)
			inside := false
			for _, p := range a.Prefixes {
				if p.Contains(ip) {
					inside = true
					break
				}
			}
			if !inside {
				t.Fatalf("AS %d IP %v outside prefixes %v", a.ASN, ip, a.Prefixes)
			}
		}
	}
}

func TestMaterializeDeterministic(t *testing.T) {
	w, pl := worldAndPlacer(t)
	a := w.Eyeballs()[0]
	u1 := pl.Materialize(a, 50, rng.New(7).Split("x"))
	u2 := pl.Materialize(a, 50, rng.New(7).Split("x"))
	if len(u1) != 50 {
		t.Fatalf("len = %d", len(u1))
	}
	for i := range u1 {
		if u1[i] != u2[i] {
			t.Fatalf("user %d differs: %+v vs %+v", i, u1[i], u2[i])
		}
		if u1[i].ASN != a.ASN {
			t.Fatalf("user %d has ASN %d", i, u1[i].ASN)
		}
	}
}

func TestPlaceInfraOnlyFallback(t *testing.T) {
	_, pl := worldAndPlacer(t)
	w2, _ := astopo.Generate(astopo.SmallConfig(32))
	// Tier-1s have no user-serving PoPs; Place must still return a valid
	// location (the fallback path).
	var tier1 *astopo.AS
	for _, a := range w2.ASes() {
		if a.Kind == astopo.KindTier1 {
			tier1 = a
			break
		}
	}
	if tier1 == nil {
		t.Fatal("no tier-1")
	}
	loc := pl.Place(tier1, rng.New(4))
	if !loc.Valid() {
		t.Errorf("fallback location invalid: %v", loc)
	}
}

// referencePlace and referenceIPFor draw a user the direct way, building
// the PoP and prefix weight slices on every call. The placer's tables must
// hand rng.Source.WeightedIndex the same weights, so both consume the
// same draws and return the same users.
func referencePlace(a *astopo.AS, s *rng.Source) geo.Point {
	pops := a.UserPoPs()
	if len(pops) == 0 {
		return a.PoPs[0].City.Loc
	}
	weights := make([]float64, len(pops))
	for i, p := range pops {
		weights[i] = p.Share
	}
	idx := s.WeightedIndex(weights)
	if idx < 0 {
		idx = 0
	}
	city := pops[idx].City
	r := city.RadiusKm()
	var dist float64
	if s.Bool(suburbanTailProb) {
		dist = r * (1 + (suburbanReach-1)*s.Float64()*s.Float64())
	} else {
		dist = r * s.Float64() * math.Sqrt(s.Float64())
	}
	return geo.Destination(city.Loc, s.Range(0, 360), dist)
}

func referenceIPFor(a *astopo.AS, s *rng.Source) ipnet.Addr {
	if len(a.Prefixes) == 0 {
		return 0
	}
	if len(a.Prefixes) == 1 {
		return a.Prefixes[0].Nth(uint64(s.Int63()))
	}
	weights := make([]float64, len(a.Prefixes))
	for i, p := range a.Prefixes {
		weights[i] = float64(p.NumAddrs())
	}
	return a.Prefixes[s.WeightedIndex(weights)].Nth(uint64(s.Int63()))
}

// TestPlacerMatchesReference draws users of every AS of a world, and of
// an AS from another world, through the placer and through the reference,
// from identically seeded streams.
func TestPlacerMatchesReference(t *testing.T) {
	w, pl := worldAndPlacer(t)
	w2, err := astopo.Generate(astopo.SmallConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	ases := append(w.ASes(), w2.Eyeballs()[0])
	for _, a := range ases {
		got, want := rng.New(9).SplitN("ref", int(a.ASN)), rng.New(9).SplitN("ref", int(a.ASN))
		for i := 0; i < 50; i++ {
			if g, r := pl.IPFor(a, got), referenceIPFor(a, want); g != r {
				t.Fatalf("AS %d draw %d: IPFor %v, reference %v", a.ASN, i, g, r)
			}
			if g, r := pl.Place(a, got), referencePlace(a, want); g != r {
				t.Fatalf("AS %d draw %d: Place %v, reference %v", a.ASN, i, g, r)
			}
		}
	}
}
