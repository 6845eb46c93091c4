// Package refdata synthesizes the paper's §5 reference dataset: the PoP
// lists some ISPs "post on their websites", collected by hand as ground
// truth for validation. Real published lists are messy in three ways the
// paper itself enumerates — they include PoPs serving no end users, they
// use inconsistent granularity (access points listed as PoPs), and they
// go stale — and this generator reproduces all three, which is what makes
// the Figure 2 validation curves non-trivial. The noise is fixed by three
// constants: includeProb (0.93), accessPerPoP (2.2) and foreignProb
// (0.15).
package refdata

import (
	"sort"

	"eyeballas/internal/astopo"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/rng"
)

// EntryKind records why a reference entry exists (evaluation metadata;
// the validation itself only uses locations).
type EntryKind int

// Reference entry provenance.
const (
	KindTruePoP EntryKind = iota // a real PoP of the AS
	KindAccess                   // an access point listed as a PoP
	KindForeign                  // a provider's PoP listed as own
)

// Entry is one published PoP claim.
type Entry struct {
	City string
	Loc  geo.Point
	Kind EntryKind
}

// The publication noise mirrors the paper's observation that published
// lists are much longer than what user-density analysis can resolve (45
// reference ASes averaged 43.7 published PoPs vs 13.6 discovered at
// 40 km).
const (
	// includeProb keeps each true PoP on the published list (stale
	// pages miss recent PoPs).
	includeProb float64 = 0.93
	// accessPerPoP is the mean number of access-point entries added per
	// true user PoP, at other cities of the home country.
	accessPerPoP float64 = 2.2
	// foreignProb adds one provider PoP to the list.
	foreignProb float64 = 0.15
)

// Reference maps publishing ASes to their published PoP entries.
type Reference struct {
	Lists map[astopo.ASN][]Entry
}

// ASNs returns the publishing ASes, ascending.
func (r *Reference) ASNs() []astopo.ASN {
	out := make([]astopo.ASN, 0, len(r.Lists))
	for a := range r.Lists {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Locations returns just the entry locations for an AS.
func (r *Reference) Locations(a astopo.ASN) []geo.Point {
	entries := r.Lists[a]
	out := make([]geo.Point, len(entries))
	for i, e := range entries {
		out[i] = e.Loc
	}
	return out
}

// Build collects the published PoP lists of every PublishesPoPs AS.
func Build(w *astopo.World, src *rng.Source) *Reference {
	ref := &Reference{Lists: make(map[astopo.ASN][]Entry)}
	for _, a := range w.ASes() {
		if !a.PublishesPoPs {
			continue
		}
		s := src.SplitN("refdata", int(a.ASN))
		var list []Entry
		listed := map[string]bool{}
		add := func(e Entry) {
			key := e.City
			if listed[key] {
				return
			}
			listed[key] = true
			list = append(list, e)
		}

		// True PoPs, each included with includeProb.
		for _, p := range a.PoPs {
			if s.Bool(includeProb) {
				add(Entry{City: p.City.Name, Loc: p.City.Loc, Kind: KindTruePoP})
			}
		}

		// Access points: other cities of the home country, which the AS
		// reaches but where user density is too thin for KDE to resolve.
		countryCities := w.Gazetteer.MajorInCountry(a.Country)
		nAccess := s.Poisson(accessPerPoP * float64(len(a.UserPoPs())))
		for i := 0; i < nAccess && i < 4*len(countryCities); i++ {
			c := countryCities[s.Intn(len(countryCities))]
			if hasPoPIn(a, c) {
				continue
			}
			add(Entry{City: c.Name, Loc: c.Loc, Kind: KindAccess})
		}

		// Occasionally a provider's PoP is listed as the AS's own.
		if s.Bool(foreignProb) {
			provs := w.Providers(a.ASN)
			if len(provs) > 0 {
				p := w.AS(provs[s.Intn(len(provs))])
				if len(p.PoPs) > 0 {
					c := p.PoPs[s.Intn(len(p.PoPs))].City
					add(Entry{City: c.Name, Loc: c.Loc, Kind: KindForeign})
				}
			}
		}

		if len(list) > 0 {
			ref.Lists[a.ASN] = list
		}
	}
	return ref
}

func hasPoPIn(a *astopo.AS, c gazetteer.City) bool {
	for _, p := range a.PoPs {
		if p.City.Name == c.Name && p.City.Country == c.Country {
			return true
		}
	}
	return false
}
