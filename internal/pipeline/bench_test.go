package pipeline

import (
	"context"
	"sync"
	"testing"

	"eyeballas/internal/astopo"
	"eyeballas/internal/benchgate"
	"eyeballas/internal/bgp"
	"eyeballas/internal/geodb"
	"eyeballas/internal/obs"
	"eyeballas/internal/p2p"
)

// benchEnv holds everything Build consumes, built once: the world, a
// crawl, both geolocation databases, and a merged origin table.
type benchEnv struct {
	crawl    *p2p.Crawl
	dbA, dbB *geodb.DB
	origins  *bgp.OriginTable
}

var benchSetupOnce = sync.OnceValues(func() (*benchEnv, error) {
	w, err := astopo.Generate(astopo.SmallConfig(71))
	if err != nil {
		return nil, err
	}
	crawl, err := p2p.Run(context.Background(), w, p2p.DefaultConfig(), seedSource(71))
	if err != nil {
		return nil, err
	}
	routing := bgp.ComputeRouting(w)
	var ribs []*bgp.RIB
	for _, a := range w.ASes() {
		if a.Kind != astopo.KindTier1 {
			continue
		}
		rib, err := bgp.BuildRIB(w, routing, a.ASN)
		if err != nil {
			return nil, err
		}
		if ribs = append(ribs, rib); len(ribs) == 3 {
			break
		}
	}
	return &benchEnv{
		crawl:   crawl,
		dbA:     geodb.NewGeoCity(w),
		dbB:     geodb.NewIPLoc(w),
		origins: bgp.NewOriginTable(ribs...),
	}, nil
})

func benchEnvOf(tb testing.TB) *benchEnv {
	tb.Helper()
	env, err := benchSetupOnce()
	if err != nil {
		tb.Fatal(err)
	}
	return env
}

// build returns one build of crawl with reg as its registry: the
// streaming Build, or with batch the frozen buildBatch reference.
// Workers=1 isolates the scalar stage cost from pool scheduling.
func (env *benchEnv) build(tb testing.TB, crawl *p2p.Crawl, reg *obs.Registry, batch bool) func() {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Obs = reg
	build := Build
	if batch {
		build = buildBatch
	}
	return func() {
		ds, err := build(context.Background(), crawl, env.dbA, env.dbB, env.origins, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		sinkTotal += int64(ds.TotalPeers)
	}
}

var sinkTotal int64

func benchBuild(b *testing.B, reg *obs.Registry, batch bool) {
	env := benchEnvOf(b)
	build := env.build(b, env.crawl, reg, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
}

// BenchmarkBuildObsOn reports the full geolocate → origin → dedup →
// condition stage chain with a live registry (funnel, spans, histograms,
// shard-aggregated lookup counter all armed); BenchmarkBuildStream is the
// same build with none. BenchmarkPairedObs gates the registry's cost, on
// against off in alternating rounds.
func BenchmarkBuildObsOn(b *testing.B) { benchBuild(b, obs.New(), false) }

// obsSchedule: a build of the crawl's first 1/64 takes about 7 ms, so a
// round is one build a side. Single rounds differ by several percent, so
// it takes 1,200 of them, about 17 s, for the median to hold within a
// hundredth of 1 from run to run, well inside the 3% budget.
var obsSchedule = benchgate.Schedule{Rounds: 1200, Ops: 1}

// BenchmarkPairedObs is the observability budget: a build with a live
// registry against the same build with none, in alternating rounds. The
// ratio must stay at or under 1.03. Both sides build the first 1/64 of
// the bench crawl's peers, so a round takes milliseconds, not a second;
// the registry's per-build costs weigh more on the smaller build, so
// the ratio errs high, if anything.
func BenchmarkPairedObs(b *testing.B) {
	env := benchEnvOf(b)
	head := &p2p.Crawl{Peers: env.crawl.Peers[:len(env.crawl.Peers)/64]}
	on, off := env.build(b, head, obs.New(), false), env.build(b, head, nil, false)
	on()
	off()
	b.ResetTimer()
	if r := benchgate.Ratio(b, obsSchedule, "obs-on/off", on, off); r > 1.03 {
		b.Errorf("obs-on/off %.3f, bound 1.03", r)
	}
}
