package experiments

import (
	"fmt"
	"strings"

	"eyeballas/internal/astopo"
	"eyeballas/internal/p2p"
	"eyeballas/internal/pipeline"
)

// CrawlQuality measures the end-to-end sensitivity of the paper's method
// to crawl effort: the §2 pipeline is rerun at decreasing crawl scales
// (the statistical analogue of the RPC budgets studied at protocol level
// in internal/dht), and the target dataset size, per-AS sample mass, and
// discovered PoPs are tracked. This is the quantitative rationale for the
// paper's 1000-peer floor: below a sample threshold, footprints thin out
// before ASes disappear.
type CrawlQuality struct {
	Scales []float64
	Rows   []CrawlQualityRow
}

// CrawlQualityRow is one crawl-scale operating point.
type CrawlQualityRow struct {
	Scale        float64
	CrawledPeers int
	EligibleASes int
	UsablePeers  int
	// MeanPoPs averages discovered PoPs/AS at 40 km over that scale's
	// eligible ASes. Beware the composition effect: at low scales only
	// large ASes survive the peer floor, inflating this mean.
	MeanPoPs float64
	// MeanPoPsCommon averages over the ASes eligible at every swept
	// scale — the like-for-like footprint-thinning signal.
	MeanPoPsCommon float64
}

// RunCrawlQuality sweeps the crawl scale multipliers (fractions of the
// environment's default crawl).
func RunCrawlQuality(env *Env, scales []float64) (*CrawlQuality, error) {
	if len(scales) == 0 {
		scales = []float64{1.0, 0.5, 0.25, 0.1}
	}
	out := &CrawlQuality{Scales: scales}
	datasets := make([]*pipeline.Dataset, len(scales))
	for si, scale := range scales {
		if scale <= 0 {
			return nil, fmt.Errorf("experiments: non-positive crawl scale %v", scale)
		}
		crawlCfg := p2p.DefaultConfig()
		crawlCfg.Scale *= scale
		ds, err := env.rebuild(crawlCfg, nil, env.Seed+7777)
		if err != nil {
			return nil, err
		}
		datasets[si] = ds
		out.Rows = append(out.Rows, CrawlQualityRow{
			Scale:        scale,
			CrawledPeers: ds.CrawledPeers,
			EligibleASes: len(ds.Order),
			UsablePeers:  ds.TotalPeers,
		})
	}

	// ASes eligible at every scale, for the like-for-like comparison.
	common := commonASes(datasets...)
	meanPoPs := func(ds *pipeline.Dataset, asns []astopo.ASN) (float64, error) {
		if len(asns) == 0 {
			return 0, nil
		}
		pops, err := env.pops(ds, asns, 40)
		if err != nil {
			return 0, err
		}
		sum := 0
		for _, ps := range pops {
			sum += len(ps)
		}
		return float64(sum) / float64(len(asns)), nil
	}
	for si, ds := range datasets {
		var err error
		if out.Rows[si].MeanPoPs, err = meanPoPs(ds, ds.Order); err != nil {
			return nil, err
		}
		if out.Rows[si].MeanPoPsCommon, err = meanPoPs(ds, common); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Render prints the sweep.
func (c *CrawlQuality) Render() string {
	var b strings.Builder
	b.WriteString("Crawl-effort sensitivity (pipeline reruns at reduced crawl scale)\n")
	fmt.Fprintf(&b, "  %-8s %12s %12s %12s %10s %14s\n", "scale", "crawled", "usable", "ASes", "PoPs/AS", "PoPs/AS(common)")
	for _, r := range c.Rows {
		fmt.Fprintf(&b, "  %-8.2f %12d %12d %12d %10.2f %14.2f\n",
			r.Scale, r.CrawledPeers, r.UsablePeers, r.EligibleASes, r.MeanPoPs, r.MeanPoPsCommon)
	}
	return b.String()
}
