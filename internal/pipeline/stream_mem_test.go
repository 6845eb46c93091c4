package pipeline

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"eyeballas/internal/astopo"
	"eyeballas/internal/benchgate"
	"eyeballas/internal/core"
	"eyeballas/internal/geodb"
	"eyeballas/internal/p2p"
)

// TestBuildSharesOnePlacePerLabelTuple: a build interns its samples'
// labels, so the dataset holds exactly one *Place per distinct label
// tuple, in the streaming build and in the frozen batch reference alike.
func TestBuildSharesOnePlacePerLabelTuple(t *testing.T) {
	w, _, crawl := setup(t)
	origins := buildOrigins(t, w)
	dbA, dbB := geodb.NewGeoCity(w), geodb.NewIPLoc(w)
	cfg := DefaultConfig()
	stream, err := Build(context.Background(), crawl, dbA, dbB, origins, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := buildBatch(context.Background(), crawl, dbA, dbB, origins, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, ds := range map[string]*Dataset{"stream": stream, "batch": batch} {
		ptrs := map[*core.Place]bool{}
		tuples := map[core.Place]bool{}
		for _, rec := range ds.Records() {
			for _, s := range rec.Samples {
				if s.Place == nil {
					t.Fatalf("%s: AS %d holds a sample without a Place", name, rec.ASN)
				}
				ptrs[s.Place] = true
				tuples[*s.Place] = true
			}
		}
		if len(ptrs) != len(tuples) {
			t.Errorf("%s: %d distinct Place pointers for %d distinct label tuples", name, len(ptrs), len(tuples))
		}
		t.Logf("%s: %d samples share %d Places", name, ds.TotalPeers, len(ptrs))
	}
}

// TestStreamStatsAccounting pins the deterministic memory ledger of an
// exact-mode streaming build: the dedup set holds exactly the kept
// unique users (== the condition stage's input), the live-sample
// watermark equals it (samples only accumulate in exact mode), and the
// batch counts follow from the input size alone.
func TestStreamStatsAccounting(t *testing.T) {
	w, _, crawl := setup(t)
	origins := buildOrigins(t, w)
	cfg := DefaultConfig()
	cfg.BatchSize = 1024
	ds, err := Build(context.Background(), crawl, geodb.NewGeoCity(w), geodb.NewIPLoc(w), origins, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := ds.Stream
	if st == nil {
		t.Fatal("streaming build carries no StreamStats")
	}
	kept := int64(st.DedupEntries)
	if in := ds.Funnel.Stage("condition").InCount(); in != kept {
		t.Fatalf("dedup set tracked %d IPs but the condition stage saw %d peers", kept, in)
	}
	if st.PeakLiveSamples != st.DedupEntries {
		t.Fatalf("exact-mode peak live samples %d != kept unique users %d", st.PeakLiveSamples, st.DedupEntries)
	}
	n := len(crawl.Peers)
	if want := (n + 1023) / 1024; st.Batches != want {
		t.Fatalf("%d batches over %d peers at 1024, want %d", st.Batches, n, want)
	}
}

// TestCappedModeLargeCapIsExact: a cap no AS reaches changes nothing —
// reservoir never evicts, the sketch stays in its exact regime — so the
// dataset is bit-identical to the uncapped reference, with Users filled.
func TestCappedModeLargeCapIsExact(t *testing.T) {
	w, _, crawl := setup(t)
	origins := buildOrigins(t, w)
	dbA, dbB := geodb.NewGeoCity(w), geodb.NewIPLoc(w)
	ref, err := buildBatch(context.Background(), crawl, dbA, dbB, origins, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxSamplesPerAS = 1 << 20
	cfg.BatchSize = 777
	got, err := Build(context.Background(), crawl, dbA, dbB, origins, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsIdentical(t, ref, got)
	for _, asn := range got.Order {
		rec := got.AS(asn)
		if rec.Users != len(rec.Samples) {
			t.Fatalf("AS %d: Users %d != len(Samples) %d under a non-binding cap", asn, rec.Users, len(rec.Samples))
		}
	}
}

// TestCappedModeBoundedAndDeterministic: with a binding cap the build
// keeps at most cap samples per AS while carrying true user counts, the
// funnel still conserves every crawled peer, and the result is
// bit-identical across batch sizes and worker counts (reservoir slots
// and sketch state are pure functions of arrival order).
func TestCappedModeBoundedAndDeterministic(t *testing.T) {
	w, _, crawl := setup(t)
	origins := buildOrigins(t, w)
	dbA, dbB := geodb.NewGeoCity(w), geodb.NewIPLoc(w)
	const capN = 25 // well below MinPeers=100, so every kept AS is capped

	build := func(batch, workers int) *Dataset {
		cfg := DefaultConfig()
		cfg.MaxSamplesPerAS = capN
		cfg.BatchSize = batch
		cfg.Workers = workers
		ds, err := Build(context.Background(), crawl, dbA, dbB, origins, cfg)
		if err != nil {
			t.Fatalf("batch=%d workers=%d: %v", batch, workers, err)
		}
		return ds
	}
	a := build(7, 8)
	b := build(1024, 1)
	assertDatasetsIdentical(t, a, b)
	assertFunnelsIdentical(t, "capped", a, b)

	if err := a.Funnel.Check(); err != nil {
		t.Fatalf("capped funnel conservation broken: %v", err)
	}
	sumUsers := 0
	for _, asn := range a.Order {
		rec := a.AS(asn)
		if len(rec.Samples) != capN {
			t.Fatalf("AS %d retained %d samples, want exactly the cap %d", asn, len(rec.Samples), capN)
		}
		if rec.Users < DefaultConfig().MinPeers {
			t.Fatalf("AS %d kept with %d users below MinPeers", asn, rec.Users)
		}
		sumUsers += rec.Users
	}
	if sumUsers != a.TotalPeers {
		t.Fatalf("sum of Users %d != TotalPeers %d", sumUsers, a.TotalPeers)
	}
	// The live-sample watermark is bounded by cap × (every AS that ever
	// held a kept peer: survivors plus the AS-level drops).
	ases := len(a.Order) + a.Drops.SmallAS + a.Drops.HighErrAS
	if a.Stream.PeakLiveSamples > capN*ases {
		t.Fatalf("peak live samples %d exceed cap(%d) × ASes(%d)", a.Stream.PeakLiveSamples, capN, ases)
	}
	if a.Stream.PeakLiveSamples >= a.Stream.DedupEntries {
		t.Fatalf("binding cap did not shrink live samples: peak %d vs %d kept users",
			a.Stream.PeakLiveSamples, a.Stream.DedupEntries)
	}
}

// Peak live heap budget of TestBuildStreamPeakHeapBounded: the heap
// before the build, plus peakBytesPerKeptUser for every kept user, plus
// peakSlackBytes for GC float and batch buffers.
const (
	peakBytesPerKeptUser = 128
	peakSlackBytes       = 48 << 20
)

// TestBuildStreamPeakHeapBounded is the live-heap assertion: a
// generative streaming build over a 10× crawl, sampled with
// runtime.ReadMemStats, must peak under a fixed per-kept-user byte
// budget plus a constant — i.e. memory tracks what is kept, not what is
// crawled. A kept user costs a 32-byte sample (its labels are interned)
// plus its dedup-set entry and the slice and map growth around both;
// the budget leaves at least 1.3× headroom over the measured peak, so
// the test fails when ingestion regresses to materializing crawl-sized
// state, or samples to carrying their own labels, not from allocator
// noise. It logs the budget formula it checked on a line of its own.
func TestBuildStreamPeakHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("10× crawl memory probe skipped in -short")
	}
	w, err := astopo.Generate(astopo.SmallConfig(71))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	origins, err := originTable(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dbA, dbB := geodb.NewGeoCity(w), geodb.NewIPLoc(w)
	crawlCfg := p2p.DefaultConfig()
	crawlCfg.Scale *= 10
	src := p2p.NewCrawlSource(w, crawlCfg, seedSource(71))

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	sampler := startMemSampler()
	ds, err := BuildStream(context.Background(), src, dbA, dbB, origins, cfg)
	peak := sampler.finish()
	if err != nil {
		t.Fatal(err)
	}
	kept := ds.Stream.DedupEntries
	if kept == 0 {
		t.Fatal("10× crawl kept no users")
	}
	budget := base.HeapAlloc + uint64(kept)*peakBytesPerKeptUser + peakSlackBytes
	if peak > budget {
		t.Fatalf("peak live heap %.1f MiB over budget %.1f MiB (base %.1f MiB, %d kept users of %d crawled)",
			float64(peak)/(1<<20), float64(budget)/(1<<20), float64(base.HeapAlloc)/(1<<20), kept, ds.CrawledPeers)
	}
	t.Logf("crawled=%d kept=%d base=%.1f MiB peak=%.1f MiB budget=%.1f MiB",
		ds.CrawledPeers, kept, float64(base.HeapAlloc)/(1<<20), float64(peak)/(1<<20), float64(budget)/(1<<20))
	t.Logf("budget formula: base + %d B per kept user + %d MiB", peakBytesPerKeptUser, peakSlackBytes>>20)
}

// BenchmarkBuildStream / BenchmarkBuildBatch time streaming ingestion
// and the frozen batch reference over the same crawl, with the same
// thresholds; TestBuildStreamBytes gates their B/op.
func BenchmarkBuildStream(b *testing.B) { benchBuild(b, nil, false) }

func BenchmarkBuildBatch(b *testing.B) { benchBuild(b, nil, true) }

// TestBuildStreamBytes: the streaming path must not allocate more than
// the batch path it replaced. A Workers=1 build over the bench crawl
// may allocate at most 1.10× what the frozen buildBatch reference
// allocates over the same crawl (measured: 0.89, 54.6 vs 61.3 MB).
func TestBuildStreamBytes(t *testing.T) {
	env := benchEnvOf(t)
	stream := benchgate.BytesPerRun(1, env.build(t, env.crawl, nil, false))
	batch := benchgate.BytesPerRun(1, env.build(t, env.crawl, nil, true))
	if stream > 1.10*batch {
		t.Errorf("streaming build allocates %.0f B, %.3f× the batch reference's %.0f B; bound 1.10×",
			stream, stream/batch, batch)
	}
	t.Logf("stream/batch bytes %.3f (%.1f / %.1f MB)", stream/batch, stream/1e6, batch/1e6)
}

// memSampler polls the live heap while a build runs.
type memSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startMemSampler() *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var m runtime.MemStats
		for {
			select {
			case <-s.stop:
				return
			case <-time.After(2 * time.Millisecond):
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > s.peak.Load() {
					s.peak.Store(m.HeapAlloc)
				}
			}
		}
	}()
	return s
}

func (s *memSampler) finish() uint64 {
	close(s.stop)
	<-s.done
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc > s.peak.Load() {
		s.peak.Store(m.HeapAlloc)
	}
	return s.peak.Load()
}
