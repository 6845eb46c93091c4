package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/kde"
	"eyeballas/internal/rng"
)

// referenceEstimate is the per-sample estimator that Prepare and
// EstimatePoints replaced: it sums the centroid and projects every
// sample, and the KDE bins every sample with weight 1. Its Dmax, peaks
// and partitions scan the whole surface, as they did before the grid
// carried its support; the footprint's Grid keeps the support and
// maximum the KDE recorded, which the comparison checks field by field.
func referenceEstimate(ctx context.Context, gaz *gazetteer.Gazetteer, samples []Sample, opts Options) (*Footprint, error) {
	o := opts.withDefaults()
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: no samples")
	}
	var sLat, sLon float64
	for _, s := range samples {
		sLat += s.Loc.Lat
		sLon += s.Loc.Lon
	}
	n := float64(len(samples))
	proj := geo.NewProjection(geo.Point{Lat: sLat / n, Lon: sLon / n})
	xys := make([]geo.XY, len(samples))
	for i, s := range samples {
		xys[i] = proj.ToXY(s.Loc)
	}
	g, err := kde.Estimate(ctx, xys, kde.Options{
		BandwidthKm: o.BandwidthKm,
		Workers:     o.Workers,
		Obs:         o.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	whole := *g
	whole.Spans, whole.MaxV = nil, 0
	dmax, _, _ := whole.Max()
	fp := &Footprint{
		N:          len(samples),
		Bandwidth:  o.BandwidthKm,
		Projection: proj,
		Grid:       g,
		Dmax:       dmax,
	}
	if dmax == 0 {
		return fp, nil
	}

	floor := o.Alpha * dmax
	rawPeaks := whole.Peaks(floor)
	if len(rawPeaks) > 0 {
		fp.Peaks = make([]PeakGeo, len(rawPeaks))
	}
	for i, p := range rawPeaks {
		fp.Peaks[i] = PeakGeo{Loc: proj.ToGeo(p.XY), Value: p.Value}
	}
	fp.Partitions = whole.Components(floor)

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

// bitsDiff walks two values of the same type and reports the first
// place they differ ("" when none does): floats by their bits, slices by
// nil-ness, length and element, pointers by what they point to.
func bitsDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf("%s: nil %v, reference nil %v", path, a.IsNil(), b.IsNil())
			}
			return ""
		}
		return bitsDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitsDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d (nil %v), reference len %d (nil %v)", path, a.Len(), a.IsNil(), b.Len(), b.IsNil())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitsDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %.17g, reference %.17g", path, a.Float(), b.Float())
		}
	case reflect.Int:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d, reference %d", path, a.Int(), b.Int())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q, reference %q", path, a.String(), b.String())
		}
	default:
		return fmt.Sprintf("%s: cannot compare kind %s", path, a.Kind())
	}
	return ""
}

// estimatePointsDiff prepares samples and estimates them with
// EstimatePoints and with referenceEstimate, and reports the first
// difference: in the error text when either fails, else in any field of
// the footprints ("" when they agree). failed tells whether both failed.
func estimatePointsDiff(gaz *gazetteer.Gazetteer, samples []Sample, opts Options) (diff string, failed bool) {
	ctx := context.Background()
	var got *Footprint
	pts, err := Prepare(samples)
	if err == nil {
		got, err = EstimatePoints(ctx, gaz, pts, opts)
	}
	want, wantErr := referenceEstimate(ctx, gaz, samples, opts)
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			return fmt.Sprintf("error %v, reference error %v", err, wantErr), false
		}
		return "", true
	}
	return bitsDiff("Footprint", reflect.ValueOf(got), reflect.ValueOf(want)), false
}

// zipSamples draws n samples around each center, snapped to a grid of
// the given step in degrees so that many share a location, as samples
// geolocated at zip-code resolution do.
func zipSamples(seed uint64, step float64, n int, centers ...geo.Point) []Sample {
	src := rng.New(seed)
	var out []Sample
	for _, c := range centers {
		for i := 0; i < n; i++ {
			lat := c.Lat + step*math.Round(src.Range(-0.4, 0.4)/step)
			lon := geo.NormalizeLon(c.Lon + step*math.Round(src.Range(-0.4, 0.4)/step))
			out = append(out, Sample{Loc: geo.Point{Lat: lat, Lon: lon}})
		}
	}
	return out
}

func TestEstimatePointsMatchesReference(t *testing.T) {
	gaz := gazetteer.Default()
	milan := mustCity(t, gaz, "Milan", "IT").Loc
	rome := mustCity(t, gaz, "Rome", "IT").Loc
	naples := mustCity(t, gaz, "Naples", "IT").Loc

	distinct := cloudAround(rng.New(31), mustCity(t, gaz, "Milan", "IT"), 600)
	oneLoc := make([]Sample, 500)
	for i := range oneLoc {
		oneLoc[i] = Sample{Loc: rome}
	}
	z := [2]float64{0, math.Copysign(0, -1)}
	var zeros []Sample
	for i := 0; i < 40; i++ {
		zeros = append(zeros, Sample{Loc: geo.Point{Lat: z[i%2], Lon: z[i/2%2]}})
		zeros = append(zeros, Sample{Loc: geo.Point{Lat: 0.1 * float64(i%3), Lon: 0.1 * float64(i%4)}})
	}
	nan := zipSamples(5, 0.05, 100, milan)
	nan[37].Loc.Lat = math.NaN()
	// Prepare validates no coordinates (the nan case relies on it too),
	// so one latitude far outside ±90° stretches the samples' extent
	// past what the grid cap allows at every paper bandwidth: there the
	// cell, a quarter of the bandwidth, is too small for the span.
	wide := zipSamples(4, 0.05, 100, rome)
	wide[63].Loc.Lat = 1e6

	cases := []struct {
		name    string
		samples []Sample
		bws     []float64 // nil means the paper's four
		fails   bool      // both paths must fail, with the same text
	}{
		{name: "duplicated", samples: zipSamples(1, 0.1, 1500, milan, rome, naples)},
		{name: "all-distinct", samples: distinct},
		{name: "one-sample", samples: distinct[:1]},
		{name: "one-location", samples: oneLoc},
		{name: "antimeridian", samples: zipSamples(2, 0.05, 400, geo.Point{Lat: -17.8, Lon: 179.9})},
		{name: "high-latitude", samples: zipSamples(3, 0.1, 400, geo.Point{Lat: 78.2, Lon: 15.6}, geo.Point{Lat: 69.6, Lon: 18.9})},
		{name: "signed-zeros", samples: zeros},
		{name: "nan", samples: nan, fails: true},
		{name: "cell-too-small", samples: wide, fails: true},
		{name: "bandwidth-too-small", samples: zipSamples(4, 0.05, 100, rome), bws: []float64{0.001, 1e-300}, fails: true},
	}
	for _, tc := range cases {
		bws := tc.bws
		if bws == nil {
			bws = []float64{40, 60, 80, 100}
		}
		for _, bw := range bws {
			t.Run(fmt.Sprintf("%s/bw%g", tc.name, bw), func(t *testing.T) {
				diff, failed := estimatePointsDiff(gaz, tc.samples, Options{BandwidthKm: bw})
				if diff != "" {
					t.Fatal(diff)
				}
				if failed != tc.fails {
					t.Fatalf("both paths failed: %v, want %v", failed, tc.fails)
				}
			})
		}
	}

	// The duplicated case must exercise what the points save.
	pts, err := Prepare(cases[0].samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts.XY)*10 > pts.N {
		t.Errorf("duplicated case: %d points for %d samples, want under a tenth", len(pts.XY), pts.N)
	}
}

// FuzzEstimatePointsMatchesReference checks EstimatePoints against the
// per-sample reference on fuzzed sample sets: up to 200 samples on a
// small lattice around one of four centers (a metro, the antimeridian,
// the Arctic and the origin, where ±0 meet), so locations repeat, with
// bytes that place a sample at a signed zero, NaN or ±Inf, at 40, 60,
// 80 or 100 km.
func FuzzEstimatePointsMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 1, 2, 1})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9})
	f.Add([]byte{2, 7, 13, 200, 7, 13, 64, 65, 66})
	f.Add([]byte{3, 250, 251, 250, 251, 0, 1, 10, 11})
	f.Add([]byte{7, 5, 5, 5, 252, 5, 5})
	centers := []geo.Point{{Lat: 45.46, Lon: 9.19}, {Lat: -17.8, Lon: 179.95}, {Lat: 78.2, Lon: 15.6}, {}}
	bws := []float64{40, 60, 80, 100}
	gaz := gazetteer.Default()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 201 {
			return
		}
		c := centers[data[0]%4]
		bw := bws[data[0]/4%4]
		samples := make([]Sample, 0, len(data)-1)
		for _, b := range data[1:] {
			loc := geo.Point{
				Lat: c.Lat + 0.05*float64(int(b%16)-8),
				Lon: geo.NormalizeLon(c.Lon + 0.05*float64(int(b/16)-8)),
			}
			switch b {
			case 250:
				loc.Lat = math.Copysign(0, -1)
			case 251:
				loc.Lon = math.Copysign(0, -1)
			case 252:
				loc.Lat = math.NaN()
			case 253:
				loc.Lon = math.Inf(1)
			case 254:
				loc.Lat = math.Inf(-1)
			}
			samples = append(samples, Sample{Loc: loc})
		}
		if diff, _ := estimatePointsDiff(gaz, samples, Options{BandwidthKm: bw}); diff != "" {
			t.Fatalf("center %v bw %g, %d samples: %s", c, bw, len(samples), diff)
		}
	})
}
