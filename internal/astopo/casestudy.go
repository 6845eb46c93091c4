package astopo

import (
	"fmt"

	"eyeballas/internal/gazetteer"
)

// CaseStudyRefs names the ASes and IXPs of the planted §6 scenario so the
// experiment harness can interrogate them directly. The cast mirrors the
// paper's: Subject ↔ AS8234 (RAI, Rome); NationalISP ↔ AS1267
// (Infostrada); SecondNational ↔ Fastweb; GlobalA/GlobalB ↔ Easynet/Colt;
// Legacy ↔ BT-Italia; Academic/PeerB/PeerC ↔ GARR/ASDASD/ITGate;
// LocalIXP ↔ NaMEX (Rome); RemoteIXP ↔ MIX (Milan).
type CaseStudyRefs struct {
	Subject        ASN // city-level eyeball in Rome, ~3000 P2P users
	NationalISP    ASN // Italy-wide residential provider (largest)
	SecondNational ASN // second Italy-wide provider
	GlobalA        ASN // global-reach service provider
	GlobalB        ASN // global-reach service provider
	Legacy         ASN // the country's legacy ISP
	Academic       ASN // research network, member of both IXPs
	PeerB          ASN // Milan-only network
	PeerC          ASN // Milan-only network
	LocalIXP       IXPID
	RemoteIXP      IXPID
}

// CaseStudy returns the planted §6 scenario, or nil for a loaded world
// that carries none.
func (w *World) CaseStudy() *CaseStudyRefs { return w.caseStudy }

// plantCaseStudy deterministically embeds the paper's §6 connectivity
// scenario in Italy.
func (g *generator) plantCaseStudy() error {
	gaz := g.w.Gazetteer
	rome, ok := gaz.Find("Rome", "IT")
	if !ok {
		return fmt.Errorf("astopo: gazetteer lacks Rome")
	}
	milan, ok := gaz.Find("Milan", "IT")
	if !ok {
		return fmt.Errorf("astopo: gazetteer lacks Milan")
	}
	itCities := gaz.MajorInCountry("IT")
	s := g.src.Split("casestudy")

	refs := &CaseStudyRefs{}

	// IXPs: the local (Rome) and remote (Milan) exchanges; reuse if the
	// IXP pass already created them.
	refs.LocalIXP = g.ensureIXP(rome)
	refs.RemoteIXP = g.ensureIXP(milan)

	// Italy-wide residential provider with PoPs across the country,
	// including Rome — the "natural" upstream a geography-based view
	// would predict.
	national := &AS{
		ASN: g.newASN(), Name: "NationalNet-IT", Kind: KindEyeball,
		Level: LevelCountry, Region: gazetteer.EU, Country: "IT",
		Customers: g.cfg.CustomerCap, PublishesPoPs: true,
	}
	k := min(12, len(itCities))
	total := 0.0
	for _, c := range itCities[:k] {
		total += float64(c.Pop)
	}
	for _, c := range itCities[:k] {
		national.PoPs = append(national.PoPs, PoP{City: c, Share: float64(c.Pop) / total, ServesUsers: true})
	}
	national.Prefixes = g.allocPrefixes(national.Customers)
	g.w.addAS(national)
	g.w.addProviderLink(national.ASN, g.tier1s[0])
	g.w.addProviderLink(national.ASN, g.tier1s[1%len(g.tier1s)])
	refs.NationalISP = national.ASN

	// Second national provider.
	second := &AS{
		ASN: g.newASN(), Name: "SecondNet-IT", Kind: KindEyeball,
		Level: LevelCountry, Region: gazetteer.EU, Country: "IT",
		Customers: g.cfg.CustomerCap / 2,
	}
	k2 := min(8, len(itCities))
	total = 0
	for _, c := range itCities[:k2] {
		total += float64(c.Pop)
	}
	for _, c := range itCities[:k2] {
		second.PoPs = append(second.PoPs, PoP{City: c, Share: float64(c.Pop) / total, ServesUsers: true})
	}
	second.Prefixes = g.allocPrefixes(second.Customers)
	g.w.addAS(second)
	g.w.addProviderLink(second.ASN, g.tier1s[s.Intn(len(g.tier1s))])
	g.w.addProviderLink(second.ASN, g.tier1s[s.Intn(len(g.tier1s))])
	refs.SecondNational = second.ASN

	// Two global-reach service providers with European footprints.
	euTop := gaz.MajorInRegion(gazetteer.EU)
	for i, name := range []string{"EuroReach-A", "EuroReach-B"} {
		a := &AS{
			ASN: g.newASN(), Name: name, Kind: KindTransit,
			Level: LevelContinent, Region: gazetteer.EU,
		}
		n := min(14, len(euTop))
		for _, c := range euTop[:n] {
			a.PoPs = append(a.PoPs, PoP{City: c, ServesUsers: false})
		}
		a.Prefixes = g.allocPrefixes(1 << 14)
		g.w.addAS(a)
		g.w.addProviderLink(a.ASN, g.tier1s[i%len(g.tier1s)])
		g.w.addProviderLink(a.ASN, g.tier1s[(i+2)%len(g.tier1s)])
		if i == 0 {
			refs.GlobalA = a.ASN
		} else {
			refs.GlobalB = a.ASN
		}
	}

	// Legacy national ISP: reuse the first Italian transit, or create one.
	if ts := g.transits["IT"]; len(ts) > 0 {
		refs.Legacy = ts[0]
	} else {
		legacy := &AS{
			ASN: g.newASN(), Name: "Legacy-IT", Kind: KindTransit,
			Level: LevelCountry, Region: gazetteer.EU, Country: "IT",
		}
		for _, c := range itCities[:min(6, len(itCities))] {
			legacy.PoPs = append(legacy.PoPs, PoP{City: c, ServesUsers: false})
		}
		legacy.Prefixes = g.allocPrefixes(1 << 14)
		g.w.addAS(legacy)
		g.w.addProviderLink(legacy.ASN, g.tier1s[0])
		g.transits["IT"] = append(g.transits["IT"], legacy.ASN)
		refs.Legacy = legacy.ASN
	}

	// The three Milan peers: an academic network present at both IXPs and
	// two Milan-only networks.
	mkPeer := func(name string, cities []gazetteer.City) ASN {
		a := &AS{
			ASN: g.newASN(), Name: name, Kind: KindTransit,
			Level: LevelCountry, Region: gazetteer.EU, Country: "IT",
		}
		for _, c := range cities {
			a.PoPs = append(a.PoPs, PoP{City: c, ServesUsers: false})
		}
		a.Prefixes = g.allocPrefixes(1 << 12)
		g.w.addAS(a)
		g.w.addProviderLink(a.ASN, g.tier1s[s.Intn(len(g.tier1s))])
		return a.ASN
	}
	refs.Academic = mkPeer("AcademicNet-IT", []gazetteer.City{milan, rome})
	refs.PeerB = mkPeer("MilanoData", []gazetteer.City{milan})
	refs.PeerC = mkPeer("PortaNet-IT", []gazetteer.City{milan})

	// The subject: a Rome-only content/broadcast eyeball, ~3000 P2P users.
	subject := &AS{
		ASN: g.newASN(), Name: "RomaMedia", Kind: KindContent,
		Level: LevelCity, Region: gazetteer.EU, Country: "IT",
		Customers: 3000,
		PoPs:      []PoP{{City: rome, Share: 1, ServesUsers: true}},
	}
	subject.Prefixes = g.allocPrefixes(subject.Customers)
	g.w.addAS(subject)
	refs.Subject = subject.ASN

	// Five upstreams — the paper's surprise.
	for _, p := range []ASN{refs.NationalISP, refs.SecondNational, refs.GlobalA, refs.GlobalB, refs.Legacy} {
		g.w.addProviderLink(subject.ASN, p)
	}

	// IXP membership: the subject joins the REMOTE exchange only.
	g.w.joinIXP(refs.RemoteIXP, subject.ASN)
	g.w.joinIXP(refs.RemoteIXP, refs.Academic)
	g.w.joinIXP(refs.LocalIXP, refs.Academic) // present at both, like GARR
	g.w.joinIXP(refs.RemoteIXP, refs.PeerB)
	g.w.joinIXP(refs.RemoteIXP, refs.PeerC)
	g.w.joinIXP(refs.LocalIXP, refs.NationalISP)
	g.w.joinIXP(refs.RemoteIXP, refs.NationalISP)

	// The subject's three remote peerings at Milan.
	for _, p := range []ASN{refs.Academic, refs.PeerB, refs.PeerC} {
		g.w.addPeering(Peering{A: subject.ASN, B: p, IXP: refs.RemoteIXP})
	}

	g.w.caseStudy = refs
	return nil
}

// ensureIXP returns the ID of an IXP in the given city, creating one if
// the random IXP pass did not.
func (g *generator) ensureIXP(city gazetteer.City) IXPID {
	for _, ix := range g.w.IXPs() {
		if ix.City.Name == city.Name && ix.City.Country == city.Country {
			return ix.ID
		}
	}
	g.nextIXP++
	g.w.addIXP(&IXP{ID: g.nextIXP, Name: fmt.Sprintf("%s-IX", city.Name), City: city})
	return g.nextIXP
}
