package gazetteer

import (
	"sync"
	"testing"

	"eyeballas/internal/geo"
	"eyeballas/internal/rng"
)

var benchData struct {
	once sync.Once
	g    *Gazetteer
	zips *ZipIndex
}

func benchSetup() (*Gazetteer, *ZipIndex) {
	benchData.once.Do(func() {
		benchData.g = Default()
		benchData.zips = NewZipIndex(SynthesizeZips(benchData.g, rng.New(9002)))
	})
	return benchData.g, benchData.zips
}

func BenchmarkMostPopulousWithin(b *testing.B) {
	g, _ := benchSetup()
	rome, _ := g.Find("Rome", "IT")
	probe := geo.Destination(rome.Loc, 70, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.MostPopulousWithin(probe, 40); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkWithin(b *testing.B) {
	g, _ := benchSetup()
	milan, _ := g.Find("Milan", "IT")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := g.Within(milan.Loc, 150); len(got) == 0 {
			b.Fatal("miss")
		}
	}
}

func BenchmarkZipKNearestInto(b *testing.B) {
	g, zips := benchSetup()
	rome, _ := g.Find("Rome", "IT")
	probe := geo.Destination(rome.Loc, 200, 18)
	var buf [4]ZipCentroid
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := zips.KNearestInto(probe, 120, buf[:]); n == 0 {
			b.Fatal("miss")
		}
	}
}

func BenchmarkZipNearest(b *testing.B) {
	g, zips := benchSetup()
	paris, _ := g.Find("Paris", "FR")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := zips.Nearest(paris.Loc, 100); !ok {
			b.Fatal("miss")
		}
	}
}
