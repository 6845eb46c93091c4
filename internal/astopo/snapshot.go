package astopo

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"eyeballas/internal/gazetteer"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/rng"
)

// World snapshots.
//
// A world is deterministic in its seed, but regenerating one still costs
// CPU and, more importantly, a snapshot decouples downstream tools from
// the generator version: a saved world re-loads bit-identically even if
// generator heuristics later change. The snapshot carries everything the
// measurement simulators consume; the gazetteer and zip index are
// reconstructed from the embedded data plus the saved seed (they are
// deterministic in it).

// snapshotVersion guards format evolution.
const snapshotVersion = 1

type snapshot struct {
	Version int    `json:"version"`
	Seed    uint64 `json:"seed"`

	ASes      []snapAS      `json:"ases"`
	IXPs      []snapIXP     `json:"ixps"`
	Providers [][2]int      `json:"providers"` // [customer, provider]
	Peerings  []snapPeering `json:"peerings"`
	CaseStudy *snapCase     `json:"case_study,omitempty"`
}

type snapAS struct {
	ASN       int       `json:"asn"`
	Name      string    `json:"name"`
	Kind      int       `json:"kind"`
	Level     int       `json:"level"`
	Region    string    `json:"region"`
	Country   string    `json:"country,omitempty"`
	Customers int       `json:"customers,omitempty"`
	Publishes bool      `json:"publishes,omitempty"`
	Prefixes  []string  `json:"prefixes"`
	PoPs      []snapPoP `json:"pops"`
}

type snapPoP struct {
	City    string  `json:"city"`
	Country string  `json:"country"`
	Share   float64 `json:"share,omitempty"`
	Serves  bool    `json:"serves"`
}

type snapIXP struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	City    string `json:"city"`
	Country string `json:"country"`
	Members []int  `json:"members"`
}

type snapPeering struct {
	A   int `json:"a"`
	B   int `json:"b"`
	IXP int `json:"ixp,omitempty"`
}

type snapCase struct {
	Subject, NationalISP, SecondNational int
	GlobalA, GlobalB, Legacy             int
	Academic, PeerB, PeerC               int
	LocalIXP, RemoteIXP                  int
}

// WriteSnapshot serializes the world.
func (w *World) WriteSnapshot(out io.Writer) error {
	s := snapshot{Version: snapshotVersion, Seed: w.Seed}
	for _, a := range w.ASes() {
		sa := snapAS{
			ASN:       int(a.ASN),
			Name:      a.Name,
			Kind:      int(a.Kind),
			Level:     int(a.Level),
			Region:    string(a.Region),
			Country:   a.Country,
			Customers: a.Customers,
			Publishes: a.PublishesPoPs,
		}
		for _, p := range a.Prefixes {
			sa.Prefixes = append(sa.Prefixes, p.String())
		}
		for _, p := range a.PoPs {
			sa.PoPs = append(sa.PoPs, snapPoP{
				City: p.City.Name, Country: p.City.Country,
				Share: p.Share, Serves: p.ServesUsers,
			})
		}
		s.ASes = append(s.ASes, sa)
	}
	for _, ix := range w.IXPs() {
		si := snapIXP{ID: int(ix.ID), Name: ix.Name, City: ix.City.Name, Country: ix.City.Country}
		for _, m := range ix.Members {
			si.Members = append(si.Members, int(m))
		}
		s.IXPs = append(s.IXPs, si)
	}
	for _, a := range w.ASNs() {
		for _, p := range w.Providers(a) {
			s.Providers = append(s.Providers, [2]int{int(a), int(p)})
		}
	}
	for _, p := range w.Peerings() {
		s.Peerings = append(s.Peerings, snapPeering{A: int(p.A), B: int(p.B), IXP: int(p.IXP)})
	}
	if cs := w.caseStudy; cs != nil {
		s.CaseStudy = &snapCase{
			Subject: int(cs.Subject), NationalISP: int(cs.NationalISP), SecondNational: int(cs.SecondNational),
			GlobalA: int(cs.GlobalA), GlobalB: int(cs.GlobalB), Legacy: int(cs.Legacy),
			Academic: int(cs.Academic), PeerB: int(cs.PeerB), PeerC: int(cs.PeerC),
			LocalIXP: int(cs.LocalIXP), RemoteIXP: int(cs.RemoteIXP),
		}
	}
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(&s); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSnapshot reconstructs a world from a snapshot. City references are
// resolved against the embedded gazetteer; unknown cities are an error
// (snapshots are tied to the library's geography).
func ReadSnapshot(in io.Reader) (*World, error) {
	var s snapshot
	dec := json.NewDecoder(bufio.NewReader(in))
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("astopo: decoding snapshot: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("astopo: snapshot version %d unsupported (want %d)", s.Version, snapshotVersion)
	}
	gaz := gazetteer.Default()
	zips := gazetteer.SynthesizeZips(gaz, rng.New(s.Seed).Split("zips"))
	w := newWorld(s.Seed, gaz, gazetteer.NewZipIndex(zips))

	city := func(name, country string) (gazetteer.City, error) {
		c, ok := gaz.Find(name, country)
		if !ok {
			return gazetteer.City{}, fmt.Errorf("astopo: snapshot references unknown city %s/%s", name, country)
		}
		return c, nil
	}

	for _, sa := range s.ASes {
		a := &AS{
			ASN:           ASN(sa.ASN),
			Name:          sa.Name,
			Kind:          Kind(sa.Kind),
			Level:         Level(sa.Level),
			Region:        gazetteer.Region(sa.Region),
			Country:       sa.Country,
			Customers:     sa.Customers,
			PublishesPoPs: sa.Publishes,
		}
		for _, ps := range sa.Prefixes {
			p, err := ipnet.ParsePrefix(ps)
			if err != nil {
				return nil, fmt.Errorf("astopo: snapshot AS %d: %w", sa.ASN, err)
			}
			a.Prefixes = append(a.Prefixes, p)
		}
		for _, pp := range sa.PoPs {
			c, err := city(pp.City, pp.Country)
			if err != nil {
				return nil, err
			}
			a.PoPs = append(a.PoPs, PoP{City: c, Share: pp.Share, ServesUsers: pp.Serves})
		}
		w.addAS(a)
	}
	for _, si := range s.IXPs {
		c, err := city(si.City, si.Country)
		if err != nil {
			return nil, err
		}
		ix := &IXP{ID: IXPID(si.ID), Name: si.Name, City: c}
		for _, m := range si.Members {
			ix.Members = append(ix.Members, ASN(m))
		}
		w.addIXP(ix)
	}
	for _, pr := range s.Providers {
		if w.AS(ASN(pr[0])) == nil || w.AS(ASN(pr[1])) == nil {
			return nil, fmt.Errorf("astopo: snapshot provider link references unknown AS %v", pr)
		}
		w.addProviderLink(ASN(pr[0]), ASN(pr[1]))
	}
	for _, pe := range s.Peerings {
		w.addPeering(Peering{A: ASN(pe.A), B: ASN(pe.B), IXP: IXPID(pe.IXP)})
	}
	if cs := s.CaseStudy; cs != nil {
		w.caseStudy = &CaseStudyRefs{
			Subject: ASN(cs.Subject), NationalISP: ASN(cs.NationalISP), SecondNational: ASN(cs.SecondNational),
			GlobalA: ASN(cs.GlobalA), GlobalB: ASN(cs.GlobalB), Legacy: ASN(cs.Legacy),
			Academic: ASN(cs.Academic), PeerB: ASN(cs.PeerB), PeerC: ASN(cs.PeerC),
			LocalIXP: IXPID(cs.LocalIXP), RemoteIXP: IXPID(cs.RemoteIXP),
		}
	}
	return w, nil
}
