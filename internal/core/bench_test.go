package core

import (
	"fmt"
	"math"
	"testing"

	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/rng"
)

// benchSamplesItaly scatters n samples over eight Italian metros, with
// their labels interned in one table as a build or a decoder holds them.
func benchSamplesItaly(n int) ([]Sample, *gazetteer.Gazetteer) {
	gaz := gazetteer.Default()
	src := rng.New(9100)
	cities := gaz.MajorInCountry("IT")[:8]
	places := Places{}
	out := make([]Sample, n)
	for i := range out {
		c := cities[src.Intn(len(cities))]
		out[i] = cloudAround(src, c, 1)[0]
		out[i].Place = places.Intern(*out[i].Place)
	}
	return out, gaz
}

// benchSamplesItalyZip is benchSamplesItaly with every location snapped
// to a 0.05° lattice, about the spacing of zip centroids, so samples
// share locations as geolocated ones do; benchSamplesItaly's all lie
// apart, the worst case for Prepare.
func benchSamplesItalyZip(n int) ([]Sample, *gazetteer.Gazetteer) {
	samples, gaz := benchSamplesItaly(n)
	for i := range samples {
		samples[i].Loc.Lat = math.Round(samples[i].Loc.Lat*20) / 20
		samples[i].Loc.Lon = math.Round(samples[i].Loc.Lon*20) / 20
	}
	return samples, gaz
}

func BenchmarkEstimateFootprint(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		samples, gaz := benchSamplesItaly(n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := EstimateFootprint(gaz, samples, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMultiScaleFootprint(b *testing.B) {
	samples, gaz := benchSamplesItaly(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MultiScaleFootprint(gaz, samples, MultiScaleOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateFootprintZip is BenchmarkEstimateFootprint's n10000
// case at zip resolution.
func BenchmarkEstimateFootprintZip(b *testing.B) {
	samples, gaz := benchSamplesItalyZip(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateFootprint(gaz, samples, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiScaleFootprintZip(b *testing.B) {
	samples, gaz := benchSamplesItalyZip(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MultiScaleFootprint(gaz, samples, MultiScaleOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassifyLevel(b *testing.B) {
	samples, _ := benchSamplesItaly(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ClassifyLevel(samples)
	}
}

func BenchmarkMatchPoPs(b *testing.B) {
	samples, gaz := benchSamplesItaly(10000)
	fp, err := EstimateFootprint(gaz, samples, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ref := make([]geo.Point, len(fp.PoPs))
	for i, p := range fp.PoPs {
		ref[i] = p.City.Loc
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatchPoPs(fp.PoPs, ref, MatchRadiusKm)
	}
}
