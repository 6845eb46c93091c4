// Package users synthesizes the end-user population of eyeball ASes:
// where a customer physically sits (scattered around the AS's PoP cities)
// and which IP address it holds (drawn from the AS's prefixes).
//
// Users are materialized lazily — the crawlers in internal/p2p sample
// only the users they observe, so worlds with tens of millions of nominal
// customers stay cheap.
package users

import (
	"math"

	"eyeballas/internal/astopo"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/rng"
)

// User is one materialized end user.
type User struct {
	IP      ipnet.Addr
	ASN     astopo.ASN
	TrueLoc geo.Point // exact ground-truth location
}

// Placer materializes users for the ASes of one world. NewPlacer builds
// one placement table per AS; they are read-only afterwards, so a Placer
// is safe for concurrent use.
type Placer struct {
	tables map[*astopo.AS]*placement
}

// placement is one AS's precomputed draw tables: its user-serving PoP
// cities with their customer shares, and its prefixes with their sizes.
// The weight slices are exactly the ones a per-call build would produce,
// so rng.Source.WeightedIndex consumes the same draws and returns the same
// indices.
type placement struct {
	cities  []gazetteer.City
	shares  []float64
	prefixW []float64 // nil unless the AS has two or more prefixes
}

// NewPlacer returns a placer over the world.
func NewPlacer(w *astopo.World) *Placer {
	pl := &Placer{tables: make(map[*astopo.AS]*placement)}
	for _, a := range w.ASes() {
		pl.tables[a] = newPlacement(a)
	}
	return pl
}

func newPlacement(a *astopo.AS) *placement {
	t := &placement{}
	for _, p := range a.PoPs {
		if p.ServesUsers {
			t.cities = append(t.cities, p.City)
			t.shares = append(t.shares, p.Share)
		}
	}
	if len(a.Prefixes) > 1 {
		t.prefixW = make([]float64, len(a.Prefixes))
		for i, p := range a.Prefixes {
			t.prefixW[i] = float64(p.NumAddrs())
		}
	}
	return t
}

// table returns a's placement table. An AS from outside the placer's
// world is tabulated for this call only.
func (pl *Placer) table(a *astopo.AS) *placement {
	if t, ok := pl.tables[a]; ok {
		return t
	}
	return newPlacement(a)
}

// suburbanTailProb is the fraction of users living outside the compact
// metro core, up to suburbanReach metro radii out.
const (
	suburbanTailProb = 0.12
	suburbanReach    = 1.8
)

// Place returns a ground-truth location for one user of the AS: a PoP
// city is chosen by customer share, then the user is scattered within the
// metro (triangular radial profile) or, with a small probability, in the
// suburban tail beyond it.
func (pl *Placer) Place(a *astopo.AS, s *rng.Source) geo.Point {
	t := pl.table(a)
	if len(t.cities) == 0 {
		// Infrastructure-only AS probed for a user anyway: fall back to
		// the first PoP city.
		return a.PoPs[0].City.Loc
	}
	idx := s.WeightedIndex(t.shares)
	if idx < 0 {
		idx = 0
	}
	city := t.cities[idx]
	r := city.RadiusKm()
	var dist float64
	if s.Bool(suburbanTailProb) {
		dist = r * (1 + (suburbanReach-1)*s.Float64()*s.Float64())
	} else {
		dist = r * s.Float64() * math.Sqrt(s.Float64()) // denser toward centre
	}
	return geo.Destination(city.Loc, s.Range(0, 360), dist)
}

// IPFor draws an address from the AS's prefixes, weighted by prefix size.
func (pl *Placer) IPFor(a *astopo.AS, s *rng.Source) ipnet.Addr {
	if len(a.Prefixes) == 0 {
		return 0
	}
	if len(a.Prefixes) == 1 {
		p := a.Prefixes[0]
		return p.Nth(uint64(s.Int63()))
	}
	p := a.Prefixes[s.WeightedIndex(pl.table(a).prefixW)]
	return p.Nth(uint64(s.Int63()))
}

// Materialize builds n users of the AS with one derived stream, so the
// same (world seed, AS, n) always yields the same users.
func (pl *Placer) Materialize(a *astopo.AS, n int, s *rng.Source) []User {
	out := make([]User, n)
	for i := range out {
		out[i] = User{
			IP:      pl.IPFor(a, s),
			ASN:     a.ASN,
			TrueLoc: pl.Place(a, s),
		}
	}
	return out
}
