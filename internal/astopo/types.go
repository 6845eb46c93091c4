// Package astopo generates and represents the ground-truth synthetic
// Internet topology the reproduction measures: Autonomous Systems with
// geographically-placed Points of Presence, customer-provider and peering
// relationships, and Internet eXchange Points.
//
// The paper observes a real Internet it cannot fully see; here the world
// is generated first (so every experiment has exact ground truth) and the
// measurement substrates — P2P crawls, geolocation databases, BGP tables,
// traceroutes — each observe it imperfectly, the way the paper's inputs
// do.
package astopo

import (
	"fmt"

	"eyeballas/internal/gazetteer"
	"eyeballas/internal/ipnet"
)

// ASN is an Autonomous System number.
type ASN int

// Kind classifies an AS's role in the synthetic Internet.
type Kind int

// AS roles.
const (
	KindTier1   Kind = iota // global transit-free backbone
	KindTransit             // regional/national transit provider
	KindEyeball             // serves end users — the paper's subject
	KindContent             // content/enterprise network with few users
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindTier1:
		return "tier1"
	case KindTransit:
		return "transit"
	case KindEyeball:
		return "eyeball"
	case KindContent:
		return "content"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Level is the geographic scope of an AS, the paper's §2 classification:
// the smallest region containing >95% of the AS's users.
type Level int

// Geographic scopes, ordered from narrowest to widest.
const (
	LevelCity Level = iota
	LevelState
	LevelCountry
	LevelContinent
	LevelGlobal
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelCity:
		return "city"
	case LevelState:
		return "state"
	case LevelCountry:
		return "country"
	case LevelContinent:
		return "continent"
	case LevelGlobal:
		return "global"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// PoP is a ground-truth Point of Presence of an AS.
type PoP struct {
	City gazetteer.City
	// Share is the fraction of the AS's customers homed at this PoP;
	// zero for infrastructure-only PoPs.
	Share float64
	// ServesUsers is false for the peering/transit-only PoPs §5 blames
	// for validation mismatches ("PoPs in locations away from their
	// regular customers").
	ServesUsers bool
}

// AS is one Autonomous System with its ground truth.
type AS struct {
	ASN       ASN
	Name      string
	Kind      Kind
	Level     Level // meaningful for eyeball/content ASes
	Region    gazetteer.Region
	Country   string // ISO code of the home country ("" for tier-1s)
	PoPs      []PoP
	Prefixes  []ipnet.Prefix
	Customers int // number of end-user customers (eyeball ASes)
	// PublishesPoPs marks ASes whose PoP list is "posted on the web" —
	// the §5 reference dataset is drawn from these.
	PublishesPoPs bool
}

// UserPoPs returns the PoPs that home customers.
func (a *AS) UserPoPs() []PoP {
	var out []PoP
	for _, p := range a.PoPs {
		if p.ServesUsers {
			out = append(out, p)
		}
	}
	return out
}

// Peering is a settlement-free peer-to-peer relationship, established
// either at an IXP or privately.
type Peering struct {
	A, B ASN
	IXP  IXPID // 0 for private peering
}

// IXPID identifies an Internet eXchange Point.
type IXPID int

// IXP is an Internet eXchange Point at a city.
type IXP struct {
	ID      IXPID
	Name    string
	City    gazetteer.City
	Members []ASN
}

// World is the complete ground-truth topology plus the shared geography.
type World struct {
	Seed      uint64
	Gazetteer *gazetteer.Gazetteer
	Zips      *gazetteer.ZipIndex

	ases      map[ASN]*AS
	asnOrder  []ASN
	providers map[ASN][]ASN // customer → providers
	customers map[ASN][]ASN // provider → customers
	peerings  []Peering
	peers     map[ASN][]Peering
	ixps      map[IXPID]*IXP
	ixpOrder  []IXPID
	caseStudy *CaseStudyRefs
}

// newWorld allocates an empty world.
func newWorld(seed uint64, g *gazetteer.Gazetteer, zips *gazetteer.ZipIndex) *World {
	return &World{
		Seed:      seed,
		Gazetteer: g,
		Zips:      zips,
		ases:      make(map[ASN]*AS),
		providers: make(map[ASN][]ASN),
		customers: make(map[ASN][]ASN),
		peers:     make(map[ASN][]Peering),
		ixps:      make(map[IXPID]*IXP),
	}
}

// AS returns the AS with the given number, or nil.
func (w *World) AS(n ASN) *AS { return w.ases[n] }

// ASNs returns every AS number in creation order.
func (w *World) ASNs() []ASN { return w.asnOrder }

// ASes returns every AS in creation order.
func (w *World) ASes() []*AS {
	out := make([]*AS, len(w.asnOrder))
	for i, n := range w.asnOrder {
		out[i] = w.ases[n]
	}
	return out
}

// Eyeballs returns the eyeball ASes in creation order.
func (w *World) Eyeballs() []*AS {
	var out []*AS
	for _, n := range w.asnOrder {
		if w.ases[n].Kind == KindEyeball {
			out = append(out, w.ases[n])
		}
	}
	return out
}

// Providers returns the upstream providers of an AS.
func (w *World) Providers(n ASN) []ASN { return w.providers[n] }

// Customers returns the customers of an AS.
func (w *World) Customers(n ASN) []ASN { return w.customers[n] }

// Peers returns the peerings an AS participates in.
func (w *World) Peers(n ASN) []Peering { return w.peers[n] }

// Peerings returns every peering.
func (w *World) Peerings() []Peering { return w.peerings }

// IXP returns the IXP with the given ID, or nil.
func (w *World) IXP(id IXPID) *IXP { return w.ixps[id] }

// IXPs returns every IXP in creation order.
func (w *World) IXPs() []*IXP {
	out := make([]*IXP, len(w.ixpOrder))
	for i, id := range w.ixpOrder {
		out[i] = w.ixps[id]
	}
	return out
}

// addAS registers an AS. It panics on a duplicate ASN (a generator bug).
func (w *World) addAS(a *AS) {
	if _, dup := w.ases[a.ASN]; dup {
		panic(fmt.Sprintf("astopo: duplicate ASN %d", a.ASN))
	}
	w.ases[a.ASN] = a
	w.asnOrder = append(w.asnOrder, a.ASN)
}

// addProviderLink records customer → provider.
func (w *World) addProviderLink(customer, provider ASN) {
	for _, p := range w.providers[customer] {
		if p == provider {
			return
		}
	}
	w.providers[customer] = append(w.providers[customer], provider)
	w.customers[provider] = append(w.customers[provider], customer)
}

// addPeering records a settlement-free peering; duplicates (same pair,
// same IXP) are ignored.
func (w *World) addPeering(p Peering) {
	if p.A == p.B {
		return
	}
	if p.A > p.B {
		p.A, p.B = p.B, p.A
	}
	for _, q := range w.peers[p.A] {
		if q.A == p.A && q.B == p.B && q.IXP == p.IXP {
			return
		}
	}
	w.peerings = append(w.peerings, p)
	w.peers[p.A] = append(w.peers[p.A], p)
	w.peers[p.B] = append(w.peers[p.B], p)
}

// addIXP registers an IXP.
func (w *World) addIXP(x *IXP) {
	w.ixps[x.ID] = x
	w.ixpOrder = append(w.ixpOrder, x.ID)
}

// joinIXP adds an AS to an IXP's member list.
func (w *World) joinIXP(id IXPID, n ASN) {
	x := w.ixps[id]
	for _, m := range x.Members {
		if m == n {
			return
		}
	}
	x.Members = append(x.Members, n)
}

// MemberOf reports whether an AS is a member of the IXP.
func (w *World) MemberOf(id IXPID, n ASN) bool {
	x := w.ixps[id]
	if x == nil {
		return false
	}
	for _, m := range x.Members {
		if m == n {
			return true
		}
	}
	return false
}

// Stats summarizes the world for reports.
type Stats struct {
	ASes, Eyeballs, Transits, Tier1s, Contents int
	IXPs, Peerings, ProviderLinks              int
	ByRegion                                   map[gazetteer.Region]int // eyeballs per region
	ByLevel                                    map[Level]int            // eyeballs per level
}

// Stats computes summary statistics.
func (w *World) Stats() Stats {
	s := Stats{
		ByRegion: make(map[gazetteer.Region]int),
		ByLevel:  make(map[Level]int),
	}
	for _, a := range w.ases {
		s.ASes++
		switch a.Kind {
		case KindTier1:
			s.Tier1s++
		case KindTransit:
			s.Transits++
		case KindContent:
			s.Contents++
		case KindEyeball:
			s.Eyeballs++
			s.ByRegion[a.Region]++
			s.ByLevel[a.Level]++
		}
	}
	s.IXPs = len(w.ixps)
	s.Peerings = len(w.peerings)
	for _, ps := range w.providers {
		s.ProviderLinks += len(ps)
	}
	return s
}
