package pipeline

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eyeballas/internal/faults"
	"eyeballas/internal/geodb"
	"eyeballas/internal/p2p"
)

// The differential harness: BuildStream against the frozen pre-streaming
// reference (buildBatch), bit-for-bit, across batch sizes, worker
// counts, fault plans, dedup-heavy inputs, and the budget/fallback
// paths. assertDatasetsIdentical (determinism_test.go) does the
// Float64bits-level comparison; funnels are compared via their rendered
// summaries, which cover every stage's in/out/per-reason drop counts.

// diffBatchSizes are the ISSUE-mandated sweep points: degenerate (1),
// prime and misaligned (7), large (1024), and bigger than the whole
// crawl (resolved per test from the input size).
var diffBatchSizes = []int{1, 7, 1024}

// assertFunnelsIdentical compares two builds' funnels stage by stage
// through their rendered summaries and checks conservation on both.
func assertFunnelsIdentical(t *testing.T, label string, ref, got *Dataset) {
	t.Helper()
	if err := ref.Funnel.Check(); err != nil {
		t.Fatalf("%s: reference funnel broken: %v", label, err)
	}
	if err := got.Funnel.Check(); err != nil {
		t.Fatalf("%s: stream funnel broken: %v", label, err)
	}
	if rs, gs := ref.Funnel.Summary(), got.Funnel.Summary(); rs != gs {
		t.Fatalf("%s: funnel counters differ\nbatch reference:\n%s\nstream:\n%s", label, rs, gs)
	}
}

// dupHeavyCrawl returns the fixture crawl with a copy of every 37th peer
// appended at the end, so the duplicates land far from their originals —
// guaranteed to straddle batch boundaries at every swept batch size.
func dupHeavyCrawl(crawl *p2p.Crawl) *p2p.Crawl {
	out := &p2p.Crawl{ByApp: make(map[p2p.App]int)}
	out.Peers = append(out.Peers, crawl.Peers...)
	for i := 0; i < len(crawl.Peers); i += 37 {
		out.Peers = append(out.Peers, crawl.Peers[i])
	}
	for _, p := range out.Peers {
		out.ByApp[p.App]++
	}
	return out
}

// TestStreamDiffMatrix is the tentpole's acceptance test: for clean and
// 5%-faulted builds, over the plain crawl and a duplicate-heavy one,
// Build (→ BuildStream) must be bit-identical to the frozen batch
// reference for batch sizes {1, 7, 1024, >crawl} × workers {1, 8} —
// dataset, drop fingerprints, and funnel counters alike.
func TestStreamDiffMatrix(t *testing.T) {
	w, _, fullCrawl := setup(t)
	origins := buildOrigins(t, w)
	dbA, dbB := geodb.NewGeoCity(w), geodb.NewIPLoc(w)

	// A 20k-peer prefix keeps the degenerate batch=1 sweeps fast; every
	// differential property (drops, dedup, app counting, conditioning)
	// is exercised identically, and the full crawl is covered by the
	// Run and fallback tests.
	baseCrawl := fullCrawl
	if len(baseCrawl.Peers) > 20000 {
		baseCrawl = &p2p.Crawl{Peers: fullCrawl.Peers[:20000]}
	}

	fivePct := faults.NewPlan(7)
	for _, pt := range []faults.Point{
		faults.GeoMiss, faults.GeoGarbage, faults.GeoNaN, faults.OriginMiss,
	} {
		if err := fivePct.Set(pt, 0.05); err != nil {
			t.Fatal(err)
		}
	}

	crawls := []struct {
		name  string
		crawl *p2p.Crawl
	}{
		{"plain", baseCrawl},
		{"dup_heavy", dupHeavyCrawl(baseCrawl)},
	}
	plans := []struct {
		name string
		plan *faults.Plan
	}{
		{"clean", nil},
		{"faults_5pct", fivePct},
	}

	for _, cr := range crawls {
		for _, pl := range plans {
			refCfg := DefaultConfig()
			refCfg.Workers = 4
			refCfg.Faults = pl.plan
			ref, err := buildBatch(context.Background(), cr.crawl, dbA, dbB, origins, refCfg)
			if err != nil {
				t.Fatal(err)
			}
			batches := append(append([]int(nil), diffBatchSizes...), len(cr.crawl.Peers)+1)
			for _, batch := range batches {
				for _, workers := range []int{1, 8} {
					label := cr.name + "/" + pl.name
					cfg := refCfg
					cfg.Workers = workers
					cfg.BatchSize = batch
					got, err := Build(context.Background(), cr.crawl, dbA, dbB, origins, cfg)
					if err != nil {
						t.Fatalf("%s batch=%d workers=%d: %v", label, batch, workers, err)
					}
					assertDatasetsIdentical(t, ref, got)
					assertFunnelsIdentical(t, label, ref, got)
					if got.CrawledPeers != ref.CrawledPeers {
						t.Fatalf("%s batch=%d: CrawledPeers %d != reference %d", label, batch, got.CrawledPeers, ref.CrawledPeers)
					}
					if ref.Stream != nil {
						t.Fatal("batch reference unexpectedly carries StreamStats")
					}
					st := got.Stream
					if st == nil {
						t.Fatalf("%s batch=%d: streaming build carries no StreamStats", label, batch)
					}
					n := len(cr.crawl.Peers)
					if want := (n + batch - 1) / batch; st.Batches != want || st.BatchSize != batch {
						t.Fatalf("%s: StreamStats %+v, want %d batches of %d over %d peers", label, st, want, batch, n)
					}
					if st.MaxBatch > batch {
						t.Fatalf("%s: MaxBatch %d exceeds batch size %d", label, st.MaxBatch, batch)
					}
				}
			}
		}
	}
}

// TestStreamDiffSingleDBFallback: the fallback rescue — which on the
// streaming path is a literal replay of the source — must land on the
// same dataset as the batch reference's re-scan, including the Degraded
// marking, for misaligned batch sizes.
func TestStreamDiffSingleDBFallback(t *testing.T) {
	w, _, crawl := setup(t)
	origins := buildOrigins(t, w)
	dbA, dbB := geodb.NewGeoCity(w), geodb.NewIPLoc(w)

	plan := faults.NewPlan(7)
	if err := plan.Set(faults.GeoMissB, 0.6); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Faults = plan
	cfg.MaxGeoMissFrac = 0.3
	cfg.SingleDBFallback = true

	ref, err := buildBatch(context.Background(), crawl, dbA, dbB, origins, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Degraded {
		t.Fatal("reference fallback build not degraded — fixture no longer triggers the fallback")
	}
	for _, batch := range diffBatchSizes {
		scfg := cfg
		scfg.BatchSize = batch
		scfg.Workers = 8
		got, err := Build(context.Background(), crawl, dbA, dbB, origins, scfg)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		assertDatasetsIdentical(t, ref, got)
		assertFunnelsIdentical(t, "fallback", ref, got)
		if got.Degraded != ref.Degraded || got.DegradedReason != ref.DegradedReason {
			t.Fatalf("batch=%d: degraded marking differs: %v %q vs %v %q",
				batch, got.Degraded, got.DegradedReason, ref.Degraded, ref.DegradedReason)
		}
	}
}

// TestStreamDiffSingleDBMode: requested single-DB builds take the same
// wrapper path; pin them against the reference too.
func TestStreamDiffSingleDBMode(t *testing.T) {
	w, _, crawl := setup(t)
	origins := buildOrigins(t, w)
	dbA, dbB := geodb.NewGeoCity(w), geodb.NewIPLoc(w)
	cfg := DefaultConfig()
	cfg.SingleDB = true
	ref, err := buildBatch(context.Background(), crawl, dbA, dbB, origins, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BatchSize = 7
	got, err := Build(context.Background(), crawl, dbA, dbB, origins, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsIdentical(t, ref, got)
	assertFunnelsIdentical(t, "single-db", ref, got)
}

// TestRunStreamMatchesRun: Run's generative end-to-end path — crawl
// streamed unit by unit into BuildStream, no *p2p.Crawl ever built —
// must be bit-identical to RunExport's build over the materialized crawl
// for clean and fully-faulted plans, for every worker count and batch
// size.
func TestRunStreamMatchesRun(t *testing.T) {
	w, _, _ := setup(t)

	full := faults.NewPlan(7)
	for _, pt := range []faults.Point{
		faults.CrawlLoss, faults.CrawlDup, faults.GeoMiss,
		faults.GeoGarbage, faults.GeoNaN, faults.OriginMiss,
	} {
		if err := full.Set(pt, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	for _, plan := range []*faults.Plan{nil, full} {
		cfg := DefaultConfig()
		cfg.Faults = plan
		ref, crawl, _, err := RunExport(context.Background(), w, p2p.DefaultConfig(), cfg, 71)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{0, 4096} {
			for _, workers := range []int{1, 8} {
				scfg := cfg
				scfg.Workers = workers
				scfg.BatchSize = batch
				got, _, err := Run(context.Background(), w, p2p.DefaultConfig(), scfg, 71)
				if err != nil {
					t.Fatalf("batch=%d workers=%d: %v", batch, workers, err)
				}
				assertDatasetsIdentical(t, ref, got)
				assertFunnelsIdentical(t, "run", ref, got)
				if got.CrawledPeers != len(crawl.Peers) {
					t.Fatalf("CrawledPeers %d != RunExport's crawl of %d", got.CrawledPeers, len(crawl.Peers))
				}
			}
		}
	}
}

// TestRunStreamFunnelConservationWithDups pins the streaming accounting
// end to end: with crawl-dup injection Run's streamed funnel must still
// conserve every crawled peer — crawl == kept + drops — with the
// injected duplicates showing up once in CrawledPeers and once in the
// dup_ip drop reason.
func TestRunStreamFunnelConservationWithDups(t *testing.T) {
	w, clean, _ := setup(t)
	plan := faults.NewPlan(7)
	if err := plan.Set(faults.CrawlDup, 0.05); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Faults = plan
	cfg.BatchSize = 512 // small enough that duplicates straddle batches
	ds, _, err := Run(context.Background(), w, p2p.DefaultConfig(), cfg, 71)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Funnel.Check(); err != nil {
		t.Fatalf("funnel conservation broken under crawl-dup streaming: %v", err)
	}
	if ds.CrawledPeers <= clean.CrawledPeers {
		t.Fatalf("5%% crawl-dup did not grow the crawl: %d vs clean %d", ds.CrawledPeers, clean.CrawledPeers)
	}
	if ds.Drops.DupIP <= clean.Drops.DupIP {
		t.Fatalf("dup_ip drops %d not above clean %d", ds.Drops.DupIP, clean.Drops.DupIP)
	}
	if in := ds.Funnel.Stage("geolocate").InCount(); in != int64(ds.CrawledPeers) {
		t.Fatalf("geolocate stage saw %d peers, crawl size is %d", in, ds.CrawledPeers)
	}
	if out := ds.Funnel.Stage("condition").OutCount(); out != int64(ds.TotalPeers) {
		t.Fatalf("condition stage kept %d peers, dataset says %d", out, ds.TotalPeers)
	}
}

// TestBuildStreamFileSource: a build fed from a peers file on disk —
// the bounded-memory ingestion shape for pre-crawled data — matches the
// batch reference over the same peers.
func TestBuildStreamFileSource(t *testing.T) {
	w, _, crawl := setup(t)
	origins := buildOrigins(t, w)
	dbA, dbB := geodb.NewGeoCity(w), geodb.NewIPLoc(w)

	path := filepath.Join(t.TempDir(), "peers.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2p.WritePeers(context.Background(), f, p2p.SlicePeers(crawl.Peers)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ref, err := buildBatch(context.Background(), crawl, dbA, dbB, origins, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BatchSize = 1024
	cfg.Workers = 8
	got, err := BuildStream(context.Background(), p2p.FileSource(path), dbA, dbB, origins, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsIdentical(t, ref, got)
	assertFunnelsIdentical(t, "file-source", ref, got)
}

// truncatingSource delivers the full peer slice on the first Stream call
// and a truncated one afterwards — a deliberately non-replayable source.
type truncatingSource struct {
	peers []p2p.Peer
	calls int
}

func (s *truncatingSource) Stream(ctx context.Context) (p2p.PeerStream, error) {
	s.calls++
	peers := s.peers
	if s.calls > 1 {
		peers = peers[:len(peers)/2]
	}
	st, err := p2p.SlicePeers(peers).Stream(ctx)
	return st, err
}

// TestBuildStreamDetectsNonReplayableSource: when the single-DB fallback
// replays a source that delivers a different sequence, the build must
// fail loudly instead of silently conditioning a half-crawl.
func TestBuildStreamDetectsNonReplayableSource(t *testing.T) {
	w, _, crawl := setup(t)
	origins := buildOrigins(t, w)
	dbA, dbB := geodb.NewGeoCity(w), geodb.NewIPLoc(w)

	plan := faults.NewPlan(7)
	if err := plan.Set(faults.GeoMissB, 0.6); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Faults = plan
	cfg.MaxGeoMissFrac = 0.3
	cfg.SingleDBFallback = true
	_, err := BuildStream(context.Background(), &truncatingSource{peers: crawl.Peers}, dbA, dbB, origins, cfg)
	if err == nil || !strings.Contains(err.Error(), "not replayable") {
		t.Fatalf("got %v, want a non-replayable-source error", err)
	}
}

// TestBuildStreamNilSource: a nil source is a caller bug and must be an
// error, not a panic.
func TestBuildStreamNilSource(t *testing.T) {
	w, _, _ := setup(t)
	origins := buildOrigins(t, w)
	if _, err := BuildStream(context.Background(), nil, geodb.NewGeoCity(w), geodb.NewIPLoc(w), origins, DefaultConfig()); err == nil {
		t.Fatal("nil source accepted")
	}
}

// errStream fails mid-stream; the build must surface the source's error.
type errSource struct{ peers []p2p.Peer }

func (s errSource) Stream(context.Context) (p2p.PeerStream, error) {
	return &errStream{peers: s.peers}, nil
}

type errStream struct {
	peers []p2p.Peer
	off   int
}

func (s *errStream) Next(buf []p2p.Peer) (int, error) {
	if s.off >= len(s.peers)/2 {
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(buf, s.peers[s.off:len(s.peers)/2])
	s.off += n
	return n, nil
}

// TestBuildStreamSourceErrorPropagates: a failing source aborts the
// build with its error and no partial dataset.
func TestBuildStreamSourceErrorPropagates(t *testing.T) {
	w, _, crawl := setup(t)
	origins := buildOrigins(t, w)
	ds, err := BuildStream(context.Background(), errSource{crawl.Peers}, geodb.NewGeoCity(w), geodb.NewIPLoc(w), origins, DefaultConfig())
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
	if ds != nil {
		t.Fatal("failed build returned a partial dataset")
	}
}
