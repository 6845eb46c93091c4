package eyeball

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"eyeballas/internal/p2p"
)

// Export helpers: machine-readable views of the target dataset and the
// ground-truth world, for downstream analysis outside Go.

// WriteDatasetCSV writes one row per eligible eyeball AS:
//
//	asn,name,kind,level,place,region,users,samples,kad,gnutella,bittorrent,p90_geoerr_km
//
// Ground-truth fields (name, kind) come from the world; everything else
// is measurement output. The three peer-count-ish columns measure
// different things and are deliberately separate:
//
//   - users is the number of distinct usable users observed in the AS
//     (ASRecord.Users) — the funnel-conserved quantity that sums to the
//     dataset's TotalPeers.
//   - samples is the number of retained samples (len(Samples)); it
//     equals users unless MaxSamplesPerAS capped the reservoir.
//   - kad/gnutella/bittorrent count per-crawler observations; a user
//     seen by two crawlers appears in both columns, so their sum can
//     exceed users.
//
// (Earlier revisions wrote a single "peers" column holding the sample
// count, which silently disagreed with both Users and the app columns.)
func WriteDatasetCSV(w io.Writer, world *World, ds *Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"asn", "name", "kind", "level", "place", "region",
		"users", "samples", "kad", "gnutella", "bittorrent", "p90_geoerr_km",
	}); err != nil {
		return err
	}
	for _, rec := range ds.Records() {
		name, kind := "", ""
		if a := world.AS(rec.ASN); a != nil {
			name, kind = a.Name, a.Kind.String()
		}
		row := []string{
			strconv.Itoa(int(rec.ASN)),
			name,
			kind,
			rec.Class.Level.String(),
			rec.Class.Place,
			string(rec.Region),
			strconv.Itoa(rec.Users),
			strconv.Itoa(len(rec.Samples)),
			strconv.Itoa(rec.PeersByApp[p2p.Kad]),
			strconv.Itoa(rec.PeersByApp[p2p.Gnutella]),
			strconv.Itoa(rec.PeersByApp[p2p.BitTorrent]),
			fmt.Sprintf("%.2f", rec.P90GeoErrKm),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSamplesCSV writes one AS's usable samples:
//
//	lat,lon,city,state,country,region,geoerr_km
func WriteSamplesCSV(w io.Writer, rec *ASRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"lat", "lon", "city", "state", "country", "region", "geoerr_km"}); err != nil {
		return err
	}
	for _, s := range rec.Samples {
		p := s.Labels()
		row := []string{
			fmt.Sprintf("%.5f", s.Loc.Lat),
			fmt.Sprintf("%.5f", s.Loc.Lon),
			p.City, p.State, p.Country, string(p.Region),
			fmt.Sprintf("%.2f", s.GeoErrKm),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// worldJSON is the serialized ground-truth shape.
type worldJSON struct {
	Seed  uint64       `json:"seed"`
	ASes  []asJSON     `json:"ases"`
	IXPs  []ixpJSON    `json:"ixps"`
	Peers []peeringRow `json:"peerings"`
}

type asJSON struct {
	ASN       int       `json:"asn"`
	Name      string    `json:"name"`
	Kind      string    `json:"kind"`
	Level     string    `json:"level"`
	Region    string    `json:"region"`
	Country   string    `json:"country,omitempty"`
	Customers int       `json:"customers,omitempty"`
	Publishes bool      `json:"publishes_pops,omitempty"`
	Providers []int     `json:"providers,omitempty"`
	Prefixes  []string  `json:"prefixes"`
	PoPs      []popJSON `json:"pops"`
}

type popJSON struct {
	City        string  `json:"city"`
	Country     string  `json:"country"`
	Lat         float64 `json:"lat"`
	Lon         float64 `json:"lon"`
	Share       float64 `json:"share"`
	ServesUsers bool    `json:"serves_users"`
}

type ixpJSON struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	City    string `json:"city"`
	Country string `json:"country"`
	Members []int  `json:"members"`
}

type peeringRow struct {
	A   int `json:"a"`
	B   int `json:"b"`
	IXP int `json:"ixp,omitempty"`
}

// WriteWorldJSON serializes the full ground truth (ASes with PoPs and
// prefixes, provider links, IXPs, peerings) as JSON, for analysis outside
// this library. The output is deterministic for a given world.
func WriteWorldJSON(w io.Writer, world *World) error {
	out := worldJSON{Seed: world.Seed}
	for _, a := range world.ASes() {
		aj := asJSON{
			ASN:       int(a.ASN),
			Name:      a.Name,
			Kind:      a.Kind.String(),
			Level:     a.Level.String(),
			Region:    string(a.Region),
			Country:   a.Country,
			Customers: a.Customers,
			Publishes: a.PublishesPoPs,
		}
		for _, p := range world.Providers(a.ASN) {
			aj.Providers = append(aj.Providers, int(p))
		}
		for _, p := range a.Prefixes {
			aj.Prefixes = append(aj.Prefixes, p.String())
		}
		for _, p := range a.PoPs {
			aj.PoPs = append(aj.PoPs, popJSON{
				City:        p.City.Name,
				Country:     p.City.Country,
				Lat:         p.City.Loc.Lat,
				Lon:         p.City.Loc.Lon,
				Share:       p.Share,
				ServesUsers: p.ServesUsers,
			})
		}
		out.ASes = append(out.ASes, aj)
	}
	for _, ix := range world.IXPs() {
		ij := ixpJSON{
			ID:      int(ix.ID),
			Name:    ix.Name,
			City:    ix.City.Name,
			Country: ix.City.Country,
		}
		for _, m := range ix.Members {
			ij.Members = append(ij.Members, int(m))
		}
		out.IXPs = append(out.IXPs, ij)
	}
	for _, p := range world.Peerings() {
		out.Peers = append(out.Peers, peeringRow{A: int(p.A), B: int(p.B), IXP: int(p.IXP)})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
