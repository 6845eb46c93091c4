package refdata

import (
	"testing"

	"eyeballas/internal/astopo"
	"eyeballas/internal/geo"
	"eyeballas/internal/rng"
)

func build(t *testing.T, seed uint64) (*astopo.World, *Reference) {
	t.Helper()
	w, err := astopo.Generate(astopo.SmallConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w, Build(w, rng.New(seed).Split("ref"))
}

func TestOnlyPublishersListed(t *testing.T) {
	w, ref := build(t, 92)
	if len(ref.Lists) == 0 {
		t.Fatal("no reference lists")
	}
	for _, asn := range ref.ASNs() {
		a := w.AS(asn)
		if a == nil || !a.PublishesPoPs {
			t.Errorf("non-publishing AS %d in reference", asn)
		}
	}
}

func TestListsInflatedBeyondTruePoPs(t *testing.T) {
	// The paper's reference lists average 43.7 entries while KDE at
	// 40 km finds 13.6 — published lists must be larger than the true
	// user-PoP sets on average.
	w, ref := build(t, 93)
	totalRef, totalTrue, n := 0, 0, 0
	for _, asn := range ref.ASNs() {
		totalRef += len(ref.Lists[asn])
		totalTrue += len(w.AS(asn).PoPs)
		n++
	}
	if n == 0 {
		t.Skip("no publishers at this seed")
	}
	if totalRef <= totalTrue {
		t.Errorf("reference entries %d <= true PoPs %d; lists not inflated", totalRef, totalTrue)
	}
}

func TestEntriesWellFormed(t *testing.T) {
	w, ref := build(t, 94)
	for _, asn := range ref.ASNs() {
		seen := map[string]bool{}
		for _, e := range ref.Lists[asn] {
			if e.City == "" || !e.Loc.Valid() {
				t.Fatalf("AS %d: malformed entry %+v", asn, e)
			}
			if seen[e.City] {
				t.Fatalf("AS %d: duplicate city %s", asn, e.City)
			}
			seen[e.City] = true
		}
		locs := ref.Locations(asn)
		if len(locs) != len(ref.Lists[asn]) {
			t.Fatalf("Locations length mismatch for AS %d", asn)
		}
	}
	_ = w
}

func TestMostTruePoPsIncluded(t *testing.T) {
	w, ref := build(t, 95)
	included, total := 0, 0
	for _, asn := range ref.ASNs() {
		a := w.AS(asn)
		for _, p := range a.PoPs {
			total++
			for _, e := range ref.Lists[asn] {
				if e.City == p.City.Name {
					included++
					break
				}
			}
		}
	}
	if total == 0 {
		t.Skip("no publishers")
	}
	if frac := float64(included) / float64(total); frac < 0.75 {
		t.Errorf("only %.2f of true PoPs published (includeProb is 0.93)", frac)
	}
}

func TestAccessEntriesAreOffPoP(t *testing.T) {
	w, ref := build(t, 96)
	for _, asn := range ref.ASNs() {
		a := w.AS(asn)
		for _, e := range ref.Lists[asn] {
			if e.Kind != KindAccess {
				continue
			}
			for _, p := range a.PoPs {
				if p.City.Name == e.City {
					t.Errorf("AS %d: access entry %s collides with a true PoP", asn, e.City)
				}
			}
			// Access entries stay in the home country.
			city, ok := w.Gazetteer.Find(e.City, a.Country)
			if !ok {
				t.Errorf("AS %d: access entry %s not in home country %s", asn, e.City, a.Country)
			} else if geo.DistanceKm(city.Loc, e.Loc) > 1 {
				t.Errorf("AS %d: access entry location off its city", asn)
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	_, r1 := build(t, 97)
	_, r2 := build(t, 97)
	if len(r1.Lists) != len(r2.Lists) {
		t.Fatal("list counts differ")
	}
	for asn, l1 := range r1.Lists {
		l2 := r2.Lists[asn]
		if len(l1) != len(l2) {
			t.Fatalf("AS %d list length differs", asn)
		}
		for i := range l1 {
			if l1[i] != l2[i] {
				t.Fatalf("AS %d entry %d differs", asn, i)
			}
		}
	}
}
