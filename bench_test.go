package eyeball

// The benchmark harness: one target per table and figure of the paper's
// evaluation (Table 1, Figure 1, Figures 2a/2b, the §5 statistics and
// DIMES comparison, the §6 case study), plus substrate benchmarks and the
// ablations DESIGN.md calls out (bandwidth sweep, α sweep).
//
// Benchmarks run at test scale so `go test -bench=.` finishes quickly;
// the experiment binaries (cmd/eyeballexp) run the same code at full
// scale.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"eyeballas/internal/experiments"
	"eyeballas/internal/parallel"
)

var benchShared struct {
	once sync.Once
	env  *Experiments
	err  error
}

func benchEnv(b *testing.B) *Experiments {
	b.Helper()
	benchShared.once.Do(func() {
		benchShared.env, benchShared.err = NewSmallExperiments(42)
	})
	if benchShared.err != nil {
		b.Fatal(benchShared.err)
	}
	return benchShared.env
}

// BenchmarkTable1 regenerates the Table 1 target-dataset profile.
func BenchmarkTable1(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if RunTable1(env).TotalASes == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure1 regenerates the three density panels of Figure 1.
func BenchmarkFigure1(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFigure1(env, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2a regenerates Figure 2(a): the CDF of ground-truth PoPs
// matched, at the paper's three bandwidths.
func BenchmarkFigure2a(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f2, err := RunFigure2(env, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(f2.RefMatchedPct[40]) == 0 {
			b.Fatal("empty panel (a)")
		}
	}
}

// BenchmarkFigure2b regenerates Figure 2(b): the CDF of discovered PoPs
// matched.
func BenchmarkFigure2b(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f2, err := RunFigure2(env, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(f2.DiscMatchedPct[40]) == 0 {
			b.Fatal("empty panel (b)")
		}
	}
}

// BenchmarkSection5 regenerates the §5 scalar statistics.
func BenchmarkSection5(b *testing.B) {
	env := benchEnv(b)
	f2, err := RunFigure2(env, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if RunSection5(f2).MeanReference <= 0 {
			b.Fatal("empty stats")
		}
	}
}

// BenchmarkDIMES regenerates the §5 traceroute-baseline comparison.
func BenchmarkDIMES(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunDIMES(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaseStudy regenerates the §6 connectivity case study.
func BenchmarkCaseStudy(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCaseStudy(env); err != nil {
			b.Fatal(err)
		}
	}
}

// --- extension experiments (future-work items implemented) ---

// BenchmarkMultiScale regenerates the §5 future-work multi-bandwidth
// refinement study.
func BenchmarkMultiScale(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunMultiScale(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBias regenerates the §4.3 sampling-bias study.
func BenchmarkBias(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunBias(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFusion regenerates the §7 edge+traceroute fusion study.
func BenchmarkFusion(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFusion(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict regenerates the geography→connectivity prediction
// scorecard.
func BenchmarkPredict(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunPredict(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeerGeo regenerates the §1 peering-geography study.
func BenchmarkPeerGeo(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunPeerGeo(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStability regenerates the temporal-stability study over three
// independent crawls.
func BenchmarkStability(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunStability(env, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDensityCorrelation regenerates the §4.2 density-validation
// study.
func BenchmarkDensityCorrelation(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunDensity(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServices regenerates the residential-vs-content study.
func BenchmarkServices(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunServices(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrawlQuality regenerates the crawl-effort sensitivity sweep.
func BenchmarkCrawlQuality(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCrawlQuality(env, []float64{1.0, 0.25}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate benchmarks ---

// BenchmarkWorldGeneration measures ground-truth world synthesis.
func BenchmarkWorldGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateSmallWorld(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline measures the full §2 measurement pipeline (crawl,
// dual geolocation, BGP grouping, conditioning).
func BenchmarkPipeline(b *testing.B) {
	w, err := GenerateSmallWorld(42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTargetDataset(w, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFootprintPerAS measures one AS's §3–§4 footprint estimation
// at the paper's default parameters.
func BenchmarkFootprintPerAS(b *testing.B) {
	env := benchEnv(b)
	rec := biggestRecord(env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateFootprint(env.World, rec.Samples, FootprintOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFootprintFanOut measures the per-AS fan-out that dominates a
// full evaluation run: every eligible AS's §3–§4 footprint, dispatched
// over the shared worker pool at 1, 2, and GOMAXPROCS workers. Inner KDE
// parallelism is pinned to 1 so the benchmark isolates the per-AS axis.
func BenchmarkFootprintFanOut(b *testing.B) {
	env := benchEnv(b)
	records := env.Dataset.Records()
	if len(records) > 24 {
		records = records[:24]
	}
	workerCounts := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		workerCounts = append(workerCounts, n)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			b.ReportMetric(float64(len(records)), "ases")
			for i := 0; i < b.N; i++ {
				err := parallel.ForEach(context.Background(), w, records, func(_ int, rec *ASRecord) error {
					_, err := EstimateFootprint(env.World, rec.Samples, FootprintOptions{Workers: 1})
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// biggestRecord returns the best-sampled country-level AS (the
// interesting case for bandwidth/α ablations: multi-city footprints), or
// the best-sampled AS overall if none is country-level.
func biggestRecord(env *Experiments) *ASRecord {
	var best, bestCountry *ASRecord
	for _, rec := range env.Dataset.Records() {
		if best == nil || len(rec.Samples) > len(best.Samples) {
			best = rec
		}
		if rec.Class.Level == LevelCountry &&
			(bestCountry == nil || len(rec.Samples) > len(bestCountry.Samples)) {
			bestCountry = rec
		}
	}
	if bestCountry != nil {
		return bestCountry
	}
	return best
}

// --- ablations ---

// BenchmarkAblationBandwidth sweeps the kernel bandwidth beyond the
// paper's three values, measuring cost and reporting the PoP counts via
// sub-benchmark metrics.
func BenchmarkAblationBandwidth(b *testing.B) {
	env := benchEnv(b)
	rec := biggestRecord(env)
	for _, bw := range []float64{10, 20, 40, 80, 120} {
		b.Run(bwName(bw), func(b *testing.B) {
			pops := 0
			for i := 0; i < b.N; i++ {
				fp, err := EstimateFootprint(env.World, rec.Samples, FootprintOptions{BandwidthKm: bw})
				if err != nil {
					b.Fatal(err)
				}
				pops = len(fp.PoPs)
			}
			b.ReportMetric(float64(pops), "pops")
		})
	}
}

func bwName(bw float64) string {
	switch bw {
	case 10:
		return "bw10km"
	case 20:
		return "bw20km"
	case 40:
		return "bw40km"
	case 80:
		return "bw80km"
	default:
		return "bw120km"
	}
}

// BenchmarkAblationAlpha sweeps the peak-selection threshold α (§4.1
// fixes it at 0.01).
func BenchmarkAblationAlpha(b *testing.B) {
	env := benchEnv(b)
	rec := biggestRecord(env)
	for _, tc := range []struct {
		name  string
		alpha float64
	}{{"alpha0.001", 0.001}, {"alpha0.01", 0.01}, {"alpha0.1", 0.1}} {
		b.Run(tc.name, func(b *testing.B) {
			pops := 0
			for i := 0; i < b.N; i++ {
				fp, err := EstimateFootprint(env.World, rec.Samples, FootprintOptions{Alpha: tc.alpha})
				if err != nil {
					b.Fatal(err)
				}
				pops = len(fp.PoPs)
			}
			b.ReportMetric(float64(pops), "pops")
		})
	}
}

// BenchmarkExperimentEnv measures building the full small-scale
// measurement environment from scratch.
func BenchmarkExperimentEnv(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewEnv(uint64(i), experiments.ScaleSmall); err != nil {
			b.Fatal(err)
		}
	}
}
