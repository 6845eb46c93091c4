package experiments

import (
	"fmt"
	"reflect"
	"strings"

	"eyeballas/internal/astopo"
	"eyeballas/internal/core"
	"eyeballas/internal/faults"
	"eyeballas/internal/geo"
	"eyeballas/internal/p2p"
	"eyeballas/internal/pipeline"
)

// Degradation sweeps the fault-injection rate across every ingestion
// boundary at once — crawl responses lost, geolocation records missing,
// origin lookups failing — and measures how gracefully the paper's
// methodology degrades: the technique is only useful in practice if a
// few percent of dirty input moves the discovered footprints by a few
// percent, not catastrophically.
//
// For each rate r the pipeline is rebuilt over the same world with
// crawl-loss = geo-miss = origin-miss = r, and the degraded footprints
// of the ASes still eligible are scored against the clean baseline's
// footprints with the paper's §5 PoP matching (MatchPoPs at the 2a/2b
// radius): coverage is the fraction of baseline PoPs recovered,
// precision the fraction of degraded PoPs that existed in the baseline.
//
// The r = 0 row doubles as a determinism proof: a plan with all-zero
// rates must rebuild the baseline dataset bit for bit.
type Degradation struct {
	Rates []DegradationRow
	// BaselineASes and BaselinePeers profile the clean dataset the rows
	// are scored against.
	BaselineASes  int
	BaselinePeers int
	// ZeroRateIdentical records the r = 0 rebuild comparing equal to the
	// baseline dataset (the no-fault path provably untouched).
	ZeroRateIdentical bool
}

// DegradationRow is one fault rate's outcome.
type DegradationRow struct {
	Rate float64
	// ASes and Peers profile the degraded dataset (eligible ASes shrink
	// as faults eat peers).
	ASes  int
	Peers int
	// ASRetention is the fraction of baseline-eligible ASes still
	// eligible under this rate.
	ASRetention float64
	// MeanCoverage averages, over retained ASes, the fraction of
	// baseline PoPs the degraded footprint still finds (Figure 2a's
	// metric with the clean run as reference).
	MeanCoverage float64
	// MeanPrecision averages the fraction of degraded PoPs that match a
	// baseline PoP (Figure 2b's metric).
	MeanPrecision float64
}

// DefaultDegradationRates is the sweep the paper-style writeup uses.
var DefaultDegradationRates = []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2}

// RunDegradation rebuilds the pipeline at each fault rate and scores
// footprint similarity against the environment's clean dataset. A nil
// rates slice selects DefaultDegradationRates.
func RunDegradation(env *Env, rates []float64) (*Degradation, error) {
	if rates == nil {
		rates = DefaultDegradationRates
	}
	baseline := env.Dataset
	out := &Degradation{
		BaselineASes:  len(baseline.Order),
		BaselinePeers: baseline.TotalPeers,
	}

	// Baseline footprints, one per eligible AS, computed once.
	base, err := env.pops(baseline, baseline.Order, 40)
	if err != nil {
		return nil, err
	}
	basePoPs := make(map[astopo.ASN][]core.PoP, len(base))
	for i, asn := range baseline.Order {
		basePoPs[asn] = base[i]
	}

	for _, rate := range rates {
		plan := faults.NewPlan(env.Seed + 977)
		for _, pt := range []faults.Point{faults.CrawlLoss, faults.GeoMiss, faults.OriginMiss} {
			if err := plan.Set(pt, rate); err != nil {
				return nil, err
			}
		}
		// The r = 0 rebuild is the literal baseline build.
		ds, err := env.rebuild(p2p.DefaultConfig(), plan, env.Seed)
		if err != nil {
			return nil, err
		}
		row := DegradationRow{Rate: rate, ASes: len(ds.Order), Peers: ds.TotalPeers}
		if rate == 0 {
			out.ZeroRateIdentical = datasetsEqual(baseline, ds)
		}

		// Retained ASes: eligible in both the baseline and this rate.
		common := commonASes(baseline, ds)
		if out.BaselineASes > 0 {
			row.ASRetention = float64(len(common)) / float64(out.BaselineASes)
		}
		if len(common) > 0 {
			pops, err := env.pops(ds, common, 40)
			if err != nil {
				return nil, err
			}
			for i, asn := range common {
				ref := basePoPs[asn]
				refPts := make([]geo.Point, 0, len(ref))
				for _, p := range ref {
					refPts = append(refPts, p.City.Loc)
				}
				m := core.MatchPoPs(pops[i], refPts, core.MatchRadiusKm)
				row.MeanCoverage += m.RefMatchedFrac()
				row.MeanPrecision += m.DiscMatchedFrac()
			}
			row.MeanCoverage /= float64(len(common))
			row.MeanPrecision /= float64(len(common))
		}
		out.Rates = append(out.Rates, row)
	}
	return out, nil
}

// datasetsEqual compares two builds structurally: same eligible ASes in
// the same order, same usable samples per AS, same funnel totals.
func datasetsEqual(a, b *pipeline.Dataset) bool {
	if a.TotalPeers != b.TotalPeers || a.CrawledPeers != b.CrawledPeers {
		return false
	}
	if !reflect.DeepEqual(a.Order, b.Order) {
		return false
	}
	if a.Drops != b.Drops {
		return false
	}
	for _, asn := range a.Order {
		ra, rb := a.AS(asn), b.AS(asn)
		if rb == nil || !reflect.DeepEqual(ra.Samples, rb.Samples) || ra.Class != rb.Class {
			return false
		}
	}
	return true
}

// Render prints the sweep as a table.
func (d *Degradation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Graceful degradation under injected faults (crawl-loss = geo-miss = origin-miss = rate)\n")
	fmt.Fprintf(&b, "baseline: %d eligible ASes, %d usable peers; zero-rate rebuild identical: %v\n",
		d.BaselineASes, d.BaselinePeers, d.ZeroRateIdentical)
	fmt.Fprintf(&b, "  %6s  %6s  %10s  %9s  %9s  %9s\n",
		"rate", "ASes", "peers", "retention", "coverage", "precision")
	for _, r := range d.Rates {
		fmt.Fprintf(&b, "  %5.0f%%  %6d  %10d  %8.1f%%  %8.1f%%  %8.1f%%\n",
			100*r.Rate, r.ASes, r.Peers, 100*r.ASRetention, 100*r.MeanCoverage, 100*r.MeanPrecision)
	}
	return b.String()
}

// CSV renders the sweep machine-readably.
func (d *Degradation) CSV() string {
	var b strings.Builder
	b.WriteString("rate,ases,peers,retention,coverage,precision\n")
	for _, r := range d.Rates {
		fmt.Fprintf(&b, "%g,%d,%d,%.4f,%.4f,%.4f\n",
			r.Rate, r.ASes, r.Peers, r.ASRetention, r.MeanCoverage, r.MeanPrecision)
	}
	return b.String()
}
