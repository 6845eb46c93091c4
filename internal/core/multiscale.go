package core

import (
	"context"
	"fmt"
	"sort"

	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/parallel"
)

// Multi-scale PoP refinement.
//
// §5 observes that "some eyeball ASes have a few PoPs within a relatively
// short distance. Using the KDE approach especially with moderate to
// large bandwidth does not distinguish these PoPs" and proposes, as
// future work, to "use different kernel bandwidth and determine these
// PoPs based on the relative distance and user density of associated
// peaks with different bandwidths". This file implements that idea:
//
//  1. Estimate footprints at several bandwidths, coarse to fine.
//  2. The coarsest footprint's PoPs are trusted anchors (the §5 result:
//     large bandwidths give a small but reliable set).
//  3. Each anchor is refined by the finer scales: a finer-scale PoP
//     within one coarse bandwidth of the anchor is a candidate split of
//     that anchor. A candidate is confirmed if it persists across at
//     least minPersistence scales, or if its user density is a
//     substantial fraction of its anchor's (the paper's "relative
//     distance and user density of associated peaks"). One-scale wonders
//     with negligible mass are exactly the random error clusters §4.2
//     warns about, and are rejected.

// MultiScaleOptions configure the refinement.
type MultiScaleOptions struct {
	// Bandwidths to combine; default {10, 20, 40, 80} km. Order is
	// irrelevant (sorted internally).
	Bandwidths []float64
	// Base carries the α threshold and grid options for every scale.
	Base Options
}

func (o MultiScaleOptions) withDefaults() MultiScaleOptions {
	if len(o.Bandwidths) == 0 {
		o.Bandwidths = []float64{10, 20, 40, 80}
	}
	return o
}

const (
	// minPersistence is the number of scales a refined PoP must appear
	// at.
	minPersistence = 2
	// minDensityFrac confirms a candidate regardless of persistence when
	// its density reaches this fraction of its anchor's density.
	minDensityFrac = 0.1
)

// MultiScalePoP is a PoP confirmed by the multi-scale analysis.
type MultiScalePoP struct {
	PoP
	// FinestKm and CoarsestKm bound the bandwidths at which the PoP's
	// city appears as a distinct peak.
	FinestKm   float64
	CoarsestKm float64
	// Persistence counts the scales at which the city appears.
	Persistence int
	// Anchor names the coarse-scale PoP city this PoP refines (equal to
	// the PoP's own city for anchors themselves).
	Anchor string
}

// MultiScaleFootprint runs the refinement. The result is ordered by
// density descending, like a single-scale PoP list. It is
// MultiScaleFootprintCtx under context.Background().
func MultiScaleFootprint(gaz *gazetteer.Gazetteer, samples []Sample, opts MultiScaleOptions) ([]MultiScalePoP, error) {
	return MultiScaleFootprintCtx(context.Background(), gaz, samples, opts)
}

// MultiScaleFootprintCtx is MultiScaleFootprint with cooperative
// cancellation: ctx bounds both the per-bandwidth fan-out and each
// inner KDE convolution; a cancelled run returns ctx.Err().
func MultiScaleFootprintCtx(ctx context.Context, gaz *gazetteer.Gazetteer, samples []Sample, opts MultiScaleOptions) ([]MultiScalePoP, error) {
	o := opts.withDefaults()
	bws := append([]float64(nil), o.Bandwidths...)
	sort.Float64s(bws)
	// Every bandwidth estimates from the same prepared points.
	pts, err := Prepare(samples)
	if err != nil {
		return nil, err
	}

	// The per-bandwidth footprints are independent; fan them out over
	// the shared pool into index-addressed slots. Each inner Estimate
	// still honors o.Base.Workers for its own convolution, so the same
	// knob bounds both levels of the fan-out.
	fpList := make([]*Footprint, len(bws))
	err = parallel.ForEach(ctx, o.Base.Workers, bws, func(i int, bw float64) error {
		base := o.Base
		base.BandwidthKm = bw
		fp, err := EstimatePoints(ctx, gaz, pts, base)
		if err != nil {
			return fmt.Errorf("core: multiscale bw %.0f: %w", bw, err)
		}
		fpList[i] = fp
		return nil
	})
	if err != nil {
		return nil, err
	}
	fps := make(map[float64]*Footprint, len(bws))
	for i, bw := range bws {
		fps[bw] = fpList[i]
	}
	coarsest := bws[len(bws)-1]

	// Persistence per city across scales.
	type cityStat struct {
		pop         PoP
		finest      float64
		coarsest    float64
		persistence int
	}
	stats := map[string]*cityStat{}
	for _, bw := range bws {
		for _, p := range fps[bw].PoPs {
			key := p.City.Name + "/" + p.City.Country
			st := stats[key]
			if st == nil {
				st = &cityStat{pop: p, finest: bw, coarsest: bw}
				stats[key] = st
			}
			st.persistence++
			if bw < st.finest {
				st.finest = bw
			}
			if bw > st.coarsest {
				st.coarsest = bw
				// Prefer the coarser scale's density estimate (more
				// reliable mass attribution) but keep the finest peak
				// location refinement only across confirmed scales.
				st.pop.Density = p.Density
			}
		}
	}

	// Anchors = coarsest-scale PoPs; refined set = anchors plus
	// persistent finer PoPs within one coarse bandwidth of an anchor.
	var out []MultiScalePoP
	emitted := map[string]bool{}
	for _, anchor := range fps[coarsest].PoPs {
		anchorKey := anchor.City.Name + "/" + anchor.City.Country
		for key, st := range stats {
			if emitted[key] {
				continue
			}
			isAnchor := key == anchorKey
			if !isAnchor {
				persistent := st.persistence >= minPersistence
				dense := anchor.Density > 0 && st.pop.Density >= minDensityFrac*anchor.Density
				if !persistent && !dense {
					continue
				}
				if geo.DistanceKm(st.pop.City.Loc, anchor.City.Loc) > coarsest {
					continue
				}
			}
			emitted[key] = true
			out = append(out, MultiScalePoP{
				PoP:         st.pop,
				FinestKm:    st.finest,
				CoarsestKm:  st.coarsest,
				Persistence: st.persistence,
				Anchor:      anchor.City.Name,
			})
		}
	}
	// Persistent cities with no coarse anchor nearby: real PoPs the
	// coarsest pass smoothed below its α threshold (distant small
	// partitions — islands, exclaves). Keep them when they persist.
	keys := make([]string, 0, len(stats))
	for key := range stats {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		st := stats[key]
		if emitted[key] || st.persistence < minPersistence {
			continue
		}
		emitted[key] = true
		out = append(out, MultiScalePoP{
			PoP:         st.pop,
			FinestKm:    st.finest,
			CoarsestKm:  st.coarsest,
			Persistence: st.persistence,
		})
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Density != out[j].Density {
			return out[i].Density > out[j].Density
		}
		return out[i].City.Name < out[j].City.Name
	})
	return out, nil
}

// MultiScalePoPs extracts the plain PoP list from a multi-scale result,
// for use with MatchPoPs.
func MultiScalePoPs(ms []MultiScalePoP) []PoP {
	out := make([]PoP, len(ms))
	for i, m := range ms {
		out[i] = m.PoP
	}
	return out
}
