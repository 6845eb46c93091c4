package astopo

import (
	"fmt"
	"math"
	"sort"

	"eyeballas/internal/gazetteer"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/rng"
)

// Generate builds a ground-truth world from the configuration. Generation
// is fully deterministic in cfg.Seed.
func Generate(cfg Config) (*World, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	gaz := gazetteer.Default()
	root := rng.New(cfg.Seed)
	zips := gazetteer.SynthesizeZips(gaz, root.Split("zips"))
	w := newWorld(cfg.Seed, gaz, gazetteer.NewZipIndex(zips))

	g := &generator{
		cfg:       cfg,
		w:         w,
		src:       root.Split("astopo"),
		alloc:     ipnet.NewAllocator(),
		nextASN:   100,
		transits:  make(map[string][]ASN),
		regionTra: make(map[gazetteer.Region][]ASN),
	}
	g.genTier1s()
	g.genTransits()
	g.genEyeballs()
	g.genContents()
	g.genIXPs()
	if err := g.plantCaseStudy(); err != nil {
		return nil, err
	}
	g.genIXPPeerings()
	return w, nil
}

type generator struct {
	cfg       Config
	w         *World
	src       *rng.Source
	alloc     *ipnet.Allocator
	nextASN   ASN
	tier1s    []ASN
	transits  map[string][]ASN           // country → transit ASNs
	regionTra map[gazetteer.Region][]ASN // region → transit ASNs
	nextIXP   IXPID
}

func (g *generator) newASN() ASN {
	n := g.nextASN
	g.nextASN++
	return n
}

// allocPrefixes gives an AS address space proportional to its customer
// count (roughly 2 addresses per customer, in /18 blocks).
func (g *generator) allocPrefixes(customers int) []ipnet.Prefix {
	blocks := customers * 2 / (1 << 14)
	if blocks < 1 {
		blocks = 1
	}
	if blocks > 64 {
		blocks = 64
	}
	out := make([]ipnet.Prefix, 0, blocks)
	for i := 0; i < blocks; i++ {
		p, err := g.alloc.Alloc(18)
		if err != nil {
			// Address space exhaustion cannot happen at supported world
			// sizes (64 blocks · few thousand ASes ≪ 2^18 /18s); treat as
			// a generator bug.
			panic(fmt.Sprintf("astopo: %v", err))
		}
		out = append(out, p)
	}
	return out
}

// genTier1s creates the transit-free global backbones: PoPs in the world's
// largest cities, full-mesh private peering, no end users.
func (g *generator) genTier1s() {
	cities := topCitiesGlobal(g.w.Gazetteer, 40)
	for i := 0; i < g.cfg.NTier1; i++ {
		s := g.src.SplitN("tier1", i)
		asn := g.newASN()
		n := s.IntRange(12, 24)
		perm := s.Perm(len(cities))
		a := &AS{
			ASN:    asn,
			Name:   fmt.Sprintf("GlobalBackbone-%d", i+1),
			Kind:   KindTier1,
			Level:  LevelGlobal,
			Region: gazetteer.Other,
		}
		for _, idx := range perm[:n] {
			a.PoPs = append(a.PoPs, PoP{City: cities[idx], ServesUsers: false})
		}
		a.Prefixes = g.allocPrefixes(1 << 15)
		g.w.addAS(a)
		g.tier1s = append(g.tier1s, asn)
	}
	for i := 0; i < len(g.tier1s); i++ {
		for j := i + 1; j < len(g.tier1s); j++ {
			g.w.addPeering(Peering{A: g.tier1s[i], B: g.tier1s[j]})
		}
	}
}

// genTransits creates one to three national transit providers for every
// country in the gazetteer (one more past 10M inhabitants, another past
// 40M); they are the default upstreams of that country's eyeballs.
func (g *generator) genTransits() {
	for _, cc := range g.w.Gazetteer.Countries() {
		cities := g.w.Gazetteer.MajorInCountry(cc)
		if len(cities) == 0 {
			continue
		}
		s := g.src.Split("transit-" + cc)
		totalPop := 0
		for _, c := range cities {
			totalPop += c.Pop
		}
		count := 1
		if totalPop > 10_000_000 {
			count++
		}
		if totalPop > 40_000_000 {
			count++
		}
		for t := 0; t < count; t++ {
			asn := g.newASN()
			nPoPs := min(len(cities), s.IntRange(2, 8))
			a := &AS{
				ASN:     asn,
				Name:    fmt.Sprintf("Transit-%s-%d", cc, t+1),
				Kind:    KindTransit,
				Level:   LevelCountry,
				Region:  cities[0].Region,
				Country: cc,
			}
			for _, c := range cities[:nPoPs] { // most populous first
				a.PoPs = append(a.PoPs, PoP{City: c, ServesUsers: false})
			}
			a.Prefixes = g.allocPrefixes(1 << 14)
			g.w.addAS(a)
			g.transits[cc] = append(g.transits[cc], asn)
			g.regionTra[a.Region] = append(g.regionTra[a.Region], asn)
			// Two tier-1 uplinks.
			p1 := g.tier1s[s.Intn(len(g.tier1s))]
			p2 := g.tier1s[s.Intn(len(g.tier1s))]
			g.w.addProviderLink(asn, p1)
			g.w.addProviderLink(asn, p2)
		}
		// National transits peer with each other.
		ts := g.transits[cc]
		for i := 0; i < len(ts); i++ {
			for j := i + 1; j < len(ts); j++ {
				if s.Bool(0.5) {
					g.w.addPeering(Peering{A: ts[i], B: ts[j]})
				}
			}
		}
	}
}

// countryWeightsInRegion returns countries of a region and weights
// proportional to their gazetteer population.
func (g *generator) countryWeightsInRegion(r gazetteer.Region) (ccs []string, weights []float64) {
	pops := make(map[string]int)
	for _, c := range g.w.Gazetteer.Cities() {
		if c.Region == r {
			pops[c.Country] += c.Pop
		}
	}
	ccs = make([]string, 0, len(pops))
	for cc := range pops {
		ccs = append(ccs, cc)
	}
	sort.Strings(ccs)
	weights = make([]float64, len(ccs))
	for i, cc := range ccs {
		weights[i] = float64(pops[cc])
	}
	return ccs, weights
}

// pickCities selects k distinct cities from the slice with probability
// proportional to population.
func pickCities(s *rng.Source, cities []gazetteer.City, k int) []gazetteer.City {
	if k >= len(cities) {
		out := append([]gazetteer.City(nil), cities...)
		return out
	}
	weights := make([]float64, len(cities))
	for i, c := range cities {
		weights[i] = float64(c.Pop)
	}
	var out []gazetteer.City
	for len(out) < k {
		idx := s.WeightedIndex(weights)
		if idx < 0 {
			break
		}
		out = append(out, cities[idx])
		weights[idx] = 0
	}
	return out
}

// regionOrder fixes a deterministic iteration order over regions.
var regionOrder = []gazetteer.Region{
	gazetteer.NA, gazetteer.EU, gazetteer.AS,
	gazetteer.SA, gazetteer.AF, gazetteer.OC,
}

func (g *generator) genEyeballs() {
	for _, region := range regionOrder {
		quota := g.cfg.EyeballsPerRegion[region]
		if quota == 0 {
			continue
		}
		ccs, weights := g.countryWeightsInRegion(region)
		if len(ccs) == 0 {
			continue
		}
		for i := 0; i < quota; i++ {
			s := g.src.SplitN("eyeball-"+string(region), i)
			cc := ccs[s.WeightedIndex(weights)]
			g.genOneEyeball(s, region, cc)
		}
	}
}

// genOneEyeball creates one eyeball AS in the given country.
func (g *generator) genOneEyeball(s *rng.Source, region gazetteer.Region, cc string) *AS {
	cities := g.w.Gazetteer.MajorInCountry(cc)
	mix := levelMix[region]
	level := []Level{LevelCity, LevelState, LevelCountry}[s.WeightedIndex(mix[:])]

	var home []gazetteer.City
	switch level {
	case LevelCity:
		home = pickCities(s, cities, 1)
	case LevelState:
		seed := pickCities(s, cities, 1)[0]
		for _, c := range cities {
			if c.State == seed.State {
				home = append(home, c)
			}
		}
		// A state with many cities: serve a subset.
		if len(home) > 6 {
			home = pickCities(s, home, s.IntRange(3, 6))
		}
	case LevelCountry:
		k := s.IntRange(3, min(20, max(3, len(cities))))
		home = pickCities(s, cities, k)
		// Country-wide providers nearly always cover the largest city.
		if s.Bool(0.7) && !containsCity(home, cities[0]) {
			home = append(home, cities[0])
		}
	}

	asn := g.newASN()
	a := &AS{
		ASN:     asn,
		Name:    fmt.Sprintf("Eyeball-%s-%d", cc, asn),
		Kind:    KindEyeball,
		Level:   level,
		Region:  region,
		Country: cc,
	}

	// Customer shares ∝ pop^0.85 with lognormal noise.
	shares := make([]float64, len(home))
	total := 0.0
	for i, c := range home {
		sh := math.Pow(float64(c.Pop), 0.85) * math.Exp(s.Norm(0, 0.4))
		shares[i] = sh
		total += sh
	}
	for i, c := range home {
		a.PoPs = append(a.PoPs, PoP{City: c, Share: shares[i] / total, ServesUsers: true})
	}

	// Optional infrastructure-only PoP away from customers (§5).
	if s.Bool(infraPoPProb) {
		if infra, ok := g.pickInfraCity(s, a, cities); ok {
			a.PoPs = append(a.PoPs, PoP{City: infra, ServesUsers: false})
		}
	}

	// Customer population: bounded Pareto with a level multiplier.
	mult := map[Level]float64{LevelCity: 0.3, LevelState: 0.7, LevelCountry: 1.5}[level]
	customers := int(s.Pareto(g.cfg.CustomerMin, customerAlpha) * mult)
	if customers > g.cfg.CustomerCap {
		customers = g.cfg.CustomerCap
	}
	if customers < 1200 {
		customers = 1200
	}
	a.Customers = customers
	a.Prefixes = g.allocPrefixes(customers)

	// Upstream providers: rich, per the paper's §6 finding.
	g.attachProviders(s, a)

	// Publish PoP lists rarely, and only for wider-scope ASes.
	if level != LevelCity && s.Bool(publishProb*3) {
		// The searchable population in §5 is state/country-level ASes;
		// 45/672 found. publishProb is calibrated on the whole population,
		// ×3 compensates for restricting to the non-city levels here.
		a.PublishesPoPs = true
	}

	g.w.addAS(a)
	return a
}

// pickInfraCity picks a city for an infrastructure-only PoP: a major city
// of the same country (or, for European ASes, sometimes a major city
// elsewhere in the region — remote peering presence).
func (g *generator) pickInfraCity(s *rng.Source, a *AS, countryCities []gazetteer.City) (gazetteer.City, bool) {
	candidates := countryCities
	if a.Region == gazetteer.EU && s.Bool(0.3) {
		candidates = g.w.Gazetteer.MajorInRegion(gazetteer.EU)[:30]
	}
	for try := 0; try < 8; try++ {
		c := candidates[s.Intn(min(len(candidates), 10))]
		if !containsCity(popCities(a.PoPs), c) {
			return c, true
		}
	}
	return gazetteer.City{}, false
}

// attachProviders connects an eyeball/content AS to one to five
// upstreams (the paper's case study found five on a "simple" eyeball;
// richness is the point): national transits first, then regional ones,
// then tier-1s.
func (g *generator) attachProviders(s *rng.Source, a *AS) {
	nProv := 1 + s.WeightedIndex([]float64{0.30, 0.30, 0.20, 0.12, 0.08})
	var pool []ASN
	pool = append(pool, g.transits[a.Country]...)
	for _, t := range g.regionTra[a.Region] {
		if g.w.AS(t).Country != a.Country {
			pool = append(pool, t)
		}
	}
	picked := map[ASN]bool{}
	for len(picked) < nProv {
		var p ASN
		switch {
		case len(picked) < len(g.transits[a.Country]) && s.Bool(0.8):
			p = g.transits[a.Country][s.Intn(len(g.transits[a.Country]))]
		case len(pool) > 0 && s.Bool(0.7):
			p = pool[s.Intn(len(pool))]
		default:
			p = g.tier1s[s.Intn(len(g.tier1s))]
		}
		if !picked[p] {
			picked[p] = true
			g.w.addProviderLink(a.ASN, p)
		}
	}
}

// genContents creates small content/enterprise ASes: one city, few users.
func (g *generator) genContents() {
	for _, region := range regionOrder {
		n := g.cfg.ContentPerRegion[region]
		for i := 0; i < n; i++ {
			s := g.src.SplitN("content-"+string(region), i)
			ccs, weights := g.countryWeightsInRegion(region)
			if len(ccs) == 0 {
				continue
			}
			cc := ccs[s.WeightedIndex(weights)]
			cities := g.w.Gazetteer.MajorInCountry(cc)
			city := pickCities(s, cities, 1)[0]
			asn := g.newASN()
			a := &AS{
				ASN:       asn,
				Name:      fmt.Sprintf("Content-%s-%d", cc, asn),
				Kind:      KindContent,
				Level:     LevelCity,
				Region:    region,
				Country:   cc,
				Customers: s.IntRange(800, 8000),
				PoPs:      []PoP{{City: city, Share: 1, ServesUsers: true}},
			}
			a.Prefixes = g.allocPrefixes(a.Customers)
			g.attachProviders(s, a)
			g.w.addAS(a)
		}
	}
}

// genIXPs places exchanges at each region's largest cities and signs up
// members.
func (g *generator) genIXPs() {
	for _, region := range regionOrder {
		n := g.cfg.IXPsPerRegion[region]
		cities := g.w.Gazetteer.MajorInRegion(region)
		if n > len(cities) {
			n = len(cities)
		}
		for i := 0; i < n; i++ {
			g.nextIXP++
			g.w.addIXP(&IXP{
				ID:   g.nextIXP,
				Name: fmt.Sprintf("%s-IX", cities[i].Name),
				City: cities[i],
			})
		}
	}
	// Membership pass.
	for _, asn := range g.w.ASNs() {
		a := g.w.AS(asn)
		s := g.src.SplitN("ixp-join", int(asn))
		for _, ix := range g.w.IXPs() {
			switch a.Kind {
			case KindTier1:
				if hasPoPIn(a, ix.City) && s.Bool(0.5) {
					g.w.joinIXP(ix.ID, asn)
				}
			case KindTransit, KindEyeball, KindContent:
				local := hasPoPIn(a, ix.City)
				sameCountry := a.Country == ix.City.Country
				sameRegion := a.Region == ix.City.Region
				switch {
				case local:
					if s.Bool(localIXPJoinProb[a.Region]) {
						g.w.joinIXP(ix.ID, asn)
					}
				case sameCountry:
					if s.Bool(remoteIXPJoinProb[a.Region]) {
						g.w.joinIXP(ix.ID, asn)
					}
				case sameRegion:
					if s.Bool(remoteIXPJoinProb[a.Region] * 0.25) {
						g.w.joinIXP(ix.ID, asn)
					}
				}
			}
		}
	}
}

// genIXPPeerings wires settlement-free peerings among IXP members. Runs
// after the case study is planted so planted members participate.
func (g *generator) genIXPPeerings() {
	for _, ix := range g.w.IXPs() {
		members := ix.Members
		if len(members) < 2 {
			continue
		}
		s := g.src.SplitN("ixp-peer", int(ix.ID))
		for _, m := range members {
			k := s.Poisson(3)
			for t := 0; t < k; t++ {
				o := members[s.Intn(len(members))]
				if o == m {
					continue
				}
				if g.related(m, o) {
					continue // customer-provider pairs do not also peer
				}
				g.w.addPeering(Peering{A: m, B: o, IXP: ix.ID})
			}
		}
	}
}

// related reports whether a and b have a customer-provider relationship.
func (g *generator) related(a, b ASN) bool {
	for _, p := range g.w.providers[a] {
		if p == b {
			return true
		}
	}
	for _, p := range g.w.providers[b] {
		if p == a {
			return true
		}
	}
	return false
}

// --- small helpers ---

func topCitiesGlobal(g *gazetteer.Gazetteer, n int) []gazetteer.City {
	cities := append([]gazetteer.City(nil), g.Cities()...)
	sort.Slice(cities, func(i, j int) bool {
		if cities[i].Pop != cities[j].Pop {
			return cities[i].Pop > cities[j].Pop
		}
		return cities[i].Name < cities[j].Name
	})
	if n > len(cities) {
		n = len(cities)
	}
	return cities[:n]
}

func hasPoPIn(a *AS, c gazetteer.City) bool {
	for _, p := range a.PoPs {
		if p.City.Name == c.Name && p.City.Country == c.Country {
			return true
		}
	}
	return false
}

func popCities(pops []PoP) []gazetteer.City {
	out := make([]gazetteer.City, len(pops))
	for i, p := range pops {
		out[i] = p.City
	}
	return out
}

func containsCity(cs []gazetteer.City, c gazetteer.City) bool {
	for _, x := range cs {
		if x.Name == c.Name && x.Country == c.Country {
			return true
		}
	}
	return false
}
