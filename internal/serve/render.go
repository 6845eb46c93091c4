package serve

import (
	"context"
	"encoding/json"
	"sync"

	"eyeballas/internal/core"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/obs"
	"eyeballas/internal/pipeline"
)

// FootprintResponse is the canonical JSON shape of a served footprint.
// The same struct — and the same renderPoints function, which
// RenderFootprint calls after preparing the samples — backs both
// eyeballserve's /v1/footprint endpoint and eyeballpipe's -footprint
// offline export, which is what makes the CI byte-diff between the two
// meaningful: any divergence is a real dataset or estimator divergence,
// never a formatting one.
type FootprintResponse struct {
	ASN         int           `json:"asn"`
	BandwidthKm float64       `json:"bandwidth_km"`
	Samples     int           `json:"samples"`
	Users       int           `json:"users"`
	Dmax        float64       `json:"dmax"`
	Partitions  int           `json:"partitions"`
	NoCityPeaks int           `json:"no_city_peaks"`
	PoPs        []PoPResponse `json:"pops"`
}

// PoPResponse is one city-mapped density peak.
type PoPResponse struct {
	City      string  `json:"city"`
	State     string  `json:"state,omitempty"`
	Country   string  `json:"country"`
	Lat       float64 `json:"lat"`
	Lon       float64 `json:"lon"`
	Density   float64 `json:"density"`
	PeakValue float64 `json:"peak_value"`
}

// RenderFootprint runs the §3–4 footprint estimator over one AS record
// and renders the result as canonical JSON (trailing newline included).
// The output is a pure function of (record, bandwidth): encoding/json
// emits the shortest round-trip form of each float, struct fields in
// declaration order, and the PoP list arrives from core sorted by
// descending density — so equal inputs produce equal bytes whether the
// record came from a live pipeline build or a snapshot read back from
// disk, and regardless of worker count.
func RenderFootprint(ctx context.Context, gaz *gazetteer.Gazetteer, rec *pipeline.ASRecord, bwKm float64, workers int, reg *obs.Registry) ([]byte, error) {
	pts, err := core.Prepare(rec.Samples)
	if err != nil {
		return nil, err
	}
	return renderPoints(ctx, gaz, rec, pts, bwKm, workers, reg)
}

// defaultGaz is the gazetteer every server maps peaks with, built once
// per process on first use.
var defaultGaz = sync.OnceValue(gazetteer.Default)

// renderServed is the server's render: RenderFootprint over the
// record's points, which are prepared once at install, with the default
// gazetteer and one KDE worker, since renders are already
// request-parallel.
func renderServed(ctx context.Context, rec *pipeline.ASRecord, pts *core.Points, bwKm float64, reg *obs.Registry) ([]byte, error) {
	return renderPoints(ctx, defaultGaz(), rec, pts, bwKm, 1, reg)
}

// renderPoints is RenderFootprint over the record's prepared points.
func renderPoints(ctx context.Context, gaz *gazetteer.Gazetteer, rec *pipeline.ASRecord, pts *core.Points, bwKm float64, workers int, reg *obs.Registry) ([]byte, error) {
	fp, err := core.EstimatePoints(ctx, gaz, pts, core.Options{
		BandwidthKm: bwKm,
		Workers:     workers,
		Obs:         reg,
	})
	if err != nil {
		return nil, err
	}
	resp := FootprintResponse{
		ASN:         int(rec.ASN),
		BandwidthKm: fp.Bandwidth,
		Samples:     fp.N,
		Users:       rec.Users,
		Dmax:        fp.Dmax,
		Partitions:  len(fp.Partitions),
		NoCityPeaks: fp.NoCityPeaks,
		PoPs:        make([]PoPResponse, 0, len(fp.PoPs)),
	}
	for _, p := range fp.PoPs {
		resp.PoPs = append(resp.PoPs, PoPResponse{
			City:      p.City.Name,
			State:     p.City.State,
			Country:   p.City.Country,
			Lat:       p.City.Loc.Lat,
			Lon:       p.City.Loc.Lon,
			Density:   p.Density,
			PeakValue: p.PeakValue,
		})
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
