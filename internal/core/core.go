// Package core implements the paper's primary contribution: estimating an
// eyeball AS's geographic footprint from the geo-locations of its end
// users via kernel density estimation (§3), extracting its likely PoP
// locations from the density peaks (§4), classifying its geographic scope
// (§2), and validating discovered PoPs against reference lists (§5).
//
// The package is deliberately measurement-only: it consumes samples — a
// location plus the city/state/country labels a geolocation database
// reported — and never touches ground truth. Evaluation code compares its
// outputs against the generator's truth elsewhere.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/grid"
	"eyeballas/internal/kde"
	"eyeballas/internal/obs"
)

// Sample is one usable peer observation: the reference database's answer
// for one IP. Its labels sit in a Place that every sample with the same
// labels shares, so a sample is 32 bytes however long the names are; the
// embedded pointer keeps reads such as s.City working. A nil Place is a
// label-less sample: Labels reads it as four empty labels.
type Sample struct {
	Loc geo.Point
	*Place
	GeoErrKm float64 // cross-database geolocation error estimate
}

// Place is the label tuple a geolocation database reports for a sample.
type Place struct {
	City    string
	State   string
	Country string
	Region  gazetteer.Region
}

// Labels returns the sample's label tuple, all empty when its Place is
// nil.
func (s Sample) Labels() Place {
	if s.Place == nil {
		return Place{}
	}
	return *s.Place
}

// Places interns label tuples: Intern hands out one shared *Place per
// distinct tuple. A build keeps one table for all of its samples, so
// equal labels share one pointer within a dataset, never across two.
type Places map[Place]*Place

// Intern returns the table's Place equal to p, adding it on first sight.
func (t Places) Intern(p Place) *Place {
	if q, ok := t[p]; ok {
		return q
	}
	q := &p
	t[p] = q
	return q
}

// Options configure footprint estimation. Zero fields take the paper's
// defaults.
type Options struct {
	// BandwidthKm is the KDE kernel bandwidth; default 40 (§3.1).
	BandwidthKm float64
	// Alpha is the peak-selection threshold: peaks with density
	// > Alpha·Dmax become PoP candidates; default 0.01 (§4.1).
	Alpha float64
	// Workers bounds the goroutines used by the KDE convolution (and, in
	// MultiScaleFootprint, the per-bandwidth fan-out); 0 means
	// GOMAXPROCS, 1 forces serial execution. Footprints are
	// byte-identical for every setting.
	Workers int
	// Obs receives footprint metrics (peak/PoP counters) and is passed
	// through to the KDE layer; nil disables instrumentation. Footprints
	// are bit-identical either way.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.BandwidthKm <= 0 {
		o.BandwidthKm = kde.CityLevelBandwidthKm
	}
	if o.Alpha <= 0 {
		o.Alpha = 0.01
	}
	return o
}

// PoP is one inferred Point of Presence: a density peak mapped to a city.
type PoP struct {
	City      gazetteer.City
	PeakLoc   geo.Point // geographic location of the density peak
	PeakValue float64   // raw density at the peak
	// Density is the paper's per-PoP weight: the share of the AS's user
	// mass within one bandwidth radius of the peak (the §4.2 footprint
	// lists, e.g. "Milan (.130)").
	Density float64
}

// Footprint is the estimated geo- and PoP-level footprint of one AS.
type Footprint struct {
	N          int // samples used
	Bandwidth  float64
	Projection *geo.Projection
	Grid       *grid.Grid
	Dmax       float64
	// Peaks are all α-selected density peaks (before city mapping),
	// highest first, in geographic coordinates.
	Peaks []PeakGeo
	// PoPs are the city-mapped peaks, deduplicated per city, sorted by
	// Density descending — the PoP-level footprint (§4).
	PoPs []PoP
	// NoCityPeaks counts α-selected peaks that mapped to no city and
	// were dropped (§4.2).
	NoCityPeaks int
	// Partitions are the connected regions of the footprint contour at
	// Alpha·Dmax, largest mass first (§3: the footprint "may consist of
	// one or multiple partitions").
	Partitions []grid.Component
}

// PeakGeo is a density peak in geographic coordinates.
type PeakGeo struct {
	Loc   geo.Point
	Value float64
}

// Points is a sample set prepared for estimation: the projection centred
// on the samples' centroid, and each distinct location, projected once,
// with the number of samples there. Geolocation databases answer at
// zip-code resolution, so an AS's samples pile up on few locations and
// an estimate over its Points bins far fewer points than samples. Points
// are immutable once prepared; any number of estimates may share them.
type Points struct {
	N          int             // samples: the sum of Count
	Projection *geo.Projection // centred on the samples' centroid
	XY         []geo.XY        // distinct locations, projected, in first-occurrence order
	Count      []uint32        // samples at XY[i]
}

// Prepare projects a sample set for EstimatePoints. Two samples share a
// point when their latitudes and their longitudes have the same bits. The
// centroid sums in sample order, as geo.Centroid would over the locations,
// so the projection is the one a per-sample estimate uses; XY and Count
// are allocated at their exact length. Each sample costs one map lookup:
// less than the projection and binning it saves when locations repeat,
// as geolocated ones do, and more when they never do.
func Prepare(samples []Sample) (*Points, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: no samples")
	}
	var sLat, sLon float64
	index := map[[2]uint64]int{}
	var count []uint32 // grows; copied to an exact-sized slice below
	for _, s := range samples {
		sLat += s.Loc.Lat
		sLon += s.Loc.Lon
		key := [2]uint64{math.Float64bits(s.Loc.Lat), math.Float64bits(s.Loc.Lon)}
		i, ok := index[key]
		if !ok {
			i = len(count)
			index[key] = i
			count = append(count, 0)
		}
		count[i]++
	}
	n := float64(len(samples))
	p := &Points{
		N:          len(samples),
		Projection: geo.NewProjection(geo.Point{Lat: sLat / n, Lon: sLon / n}),
		XY:         make([]geo.XY, len(count)),
		Count:      make([]uint32, len(count)),
	}
	copy(p.Count, count)
	for key, i := range index {
		p.XY[i] = p.Projection.ToXY(geo.Point{Lat: math.Float64frombits(key[0]), Lon: math.Float64frombits(key[1])})
	}
	return p, nil
}

// EstimateFootprint runs the §3–§4 procedure for one AS. It is
// EstimateFootprintCtx under context.Background() — the signature every
// experiment and example uses when cancellation is not in play.
func EstimateFootprint(gaz *gazetteer.Gazetteer, samples []Sample, opts Options) (*Footprint, error) {
	return EstimateFootprintCtx(context.Background(), gaz, samples, opts)
}

// EstimateFootprintCtx is EstimateFootprint with cooperative
// cancellation: ctx is observed at the KDE convolution's block
// boundaries, and a cancelled run returns ctx.Err() with no footprint.
// It is Prepare followed by EstimatePoints.
func EstimateFootprintCtx(ctx context.Context, gaz *gazetteer.Gazetteer, samples []Sample, opts Options) (*Footprint, error) {
	pts, err := Prepare(samples)
	if err != nil {
		return nil, err
	}
	return EstimatePoints(ctx, gaz, pts, opts)
}

// EstimatePoints runs the §3–§4 procedure over prepared points. Its
// footprint is bit for bit the one a per-sample estimate of the same
// samples gives: the KDE bins each point with its count, and N and every
// normalization count samples, not points. A nil pts stands for the
// empty sample set Prepare refuses, and fails the same way.
func EstimatePoints(ctx context.Context, gaz *gazetteer.Gazetteer, pts *Points, opts Options) (*Footprint, error) {
	o := opts.withDefaults()
	if pts == nil {
		return nil, fmt.Errorf("core: no samples")
	}
	proj := pts.Projection
	g, err := kde.EstimateWeighted(ctx, pts.XY, pts.Count, kde.Options{
		BandwidthKm: o.BandwidthKm,
		Workers:     o.Workers,
		Obs:         o.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// The blur recorded the surface's maximum as it wrote each cell.
	dmax := g.MaxV
	fp := &Footprint{
		N:          pts.N,
		Bandwidth:  o.BandwidthKm,
		Projection: proj,
		Grid:       g,
		Dmax:       dmax,
	}
	if dmax == 0 {
		return fp, nil
	}

	floor := o.Alpha * dmax
	rawPeaks := g.Peaks(floor)
	if len(rawPeaks) > 0 {
		fp.Peaks = make([]PeakGeo, len(rawPeaks))
	}
	for i, p := range rawPeaks {
		fp.Peaks[i] = PeakGeo{Loc: proj.ToGeo(p.XY), Value: p.Value}
	}
	fp.Partitions = g.Components(floor)

	// Peak → city mapping (§4.2), deduplicated per city keeping the
	// densest peak. The mapping is loose: a peak maps to the most
	// populous city within one bandwidth of it. byCity indexes fp.PoPs,
	// which keeps first-mapped order until the sort below.
	type cityKey struct{ name, country string }
	byCity := map[cityKey]int{}
	for _, pk := range fp.Peaks {
		city, ok := gaz.MostPopulousWithin(pk.Loc, o.BandwidthKm)
		if !ok {
			fp.NoCityPeaks++
			continue
		}
		key := cityKey{city.Name, city.Country}
		mass := massNear(g, proj, pk.Loc, o.BandwidthKm)
		if i, exists := byCity[key]; exists {
			if pop := &fp.PoPs[i]; pk.Value > pop.PeakValue {
				pop.PeakLoc = pk.Loc
				pop.PeakValue = pk.Value
				pop.Density = mass
			}
			continue
		}
		byCity[key] = len(fp.PoPs)
		fp.PoPs = append(fp.PoPs, PoP{City: city, PeakLoc: pk.Loc, PeakValue: pk.Value, Density: mass})
	}
	if o.Obs != nil {
		o.Obs.Counter("eyeball_core_peaks_total").Add(int64(len(fp.Peaks)))
		o.Obs.Counter("eyeball_core_pops_total").Add(int64(len(fp.PoPs)))
		o.Obs.Counter("eyeball_core_unmapped_peaks_total").Add(int64(fp.NoCityPeaks))
	}
	slices.SortStableFunc(fp.PoPs, func(a, b PoP) int {
		if a.Density != b.Density {
			if a.Density > b.Density {
				return -1
			}
			return 1
		}
		return strings.Compare(a.City.Name, b.City.Name)
	})
	return fp, nil
}

// massNear integrates the density surface over the disc of the given
// radius around a geographic point — the per-PoP user-mass share (the
// surface integrates to ~1).
func massNear(g *grid.Grid, proj *geo.Projection, at geo.Point, radiusKm float64) float64 {
	c := proj.ToXY(at)
	i0, j0, _ := g.CellOf(c)
	r := int(math.Ceil(radiusKm/g.Cell)) + 1
	sum := 0.0
	for j := j0 - r; j <= j0+r; j++ {
		if j < 0 || j >= g.H {
			continue
		}
		for i := i0 - r; i <= i0+r; i++ {
			if i < 0 || i >= g.W {
				continue
			}
			if g.Center(i, j).DistanceKm(c) <= radiusKm {
				sum += g.At(i, j)
			}
		}
	}
	return sum * g.Cell * g.Cell
}

// AreaKm2 returns the total area of the geo-footprint: the sum of the
// partition areas at the α·Dmax contour (§3's "geographic coverage").
func (fp *Footprint) AreaKm2() float64 {
	total := 0.0
	for _, p := range fp.Partitions {
		total += p.AreaKm
	}
	return total
}

// ReachKm returns the footprint's geographic reach: the maximum distance
// between any two of its PoPs (§1's "geographic reach is sufficiently
// large" peering criterion).
func (fp *Footprint) ReachKm() float64 { return ReachKm(fp.PoPs) }

// CityList renders the PoP-level footprint in the paper's §4.2 format:
// "[Milan (.130), Rome (.122), …]".
func (fp *Footprint) CityList() string {
	s := "["
	for i, p := range fp.PoPs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s (%.3f)", p.City.Name, p.Density)
	}
	return s + "]"
}
