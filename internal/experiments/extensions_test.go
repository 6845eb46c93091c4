package experiments

import (
	"context"
	"strings"
	"testing"

	"eyeballas/internal/astopo"
	"eyeballas/internal/p2p"
	"eyeballas/internal/pipeline"
)

func TestMultiScaleExperiment(t *testing.T) {
	env := sharedEnv(t)
	m, err := RunMultiScale(env)
	if err != nil {
		t.Fatal(err)
	}
	if m.NASes == 0 {
		t.Fatal("no validation ASes")
	}
	// The refinement's promise: at least the recall of fixed 40 km.
	if m.MultiScaleRecall < m.Plain40Recall-1e-9 {
		t.Errorf("multi-scale recall %.1f%% below plain-40 %.1f%%", m.MultiScaleRecall, m.Plain40Recall)
	}
	// And far better precision than plain 10 km.
	if m.MultiScalePrecision <= m.Plain10Precision {
		t.Errorf("multi-scale precision %.1f%% not above plain-10 %.1f%%", m.MultiScalePrecision, m.Plain10Precision)
	}
	if !strings.Contains(m.Render(), "multi-scale") {
		t.Error("render malformed")
	}
}

func TestBiasExperiment(t *testing.T) {
	env := sharedEnv(t)
	b, err := RunBias(env)
	if err != nil {
		t.Fatal(err)
	}
	if b.NASes == 0 {
		t.Fatal("no evaluable ASes")
	}
	// §4.3's mild-bias prediction: PoPs still discovered (most of them),
	// densities drift.
	if b.MildPoPRetention < 0.6 {
		t.Errorf("mild-bias retention %.2f too low; thinning should not destroy PoPs", b.MildPoPRetention)
	}
	if b.MildDensityDriftR <= 0 {
		t.Error("mild bias should shift density values")
	}
	// §4.3's significant-bias prediction: the unsampled PoP disappears.
	if b.SignificantTrials > 0 && b.SignificantLossRate < 0.5 {
		t.Errorf("significant-bias loss rate %.2f; ablated PoPs should mostly disappear", b.SignificantLossRate)
	}
	if !strings.Contains(b.Render(), "Sampling-bias") {
		t.Error("render malformed")
	}
}

func TestFusionExperiment(t *testing.T) {
	env := sharedEnv(t)
	f, err := RunFusion(env)
	if err != nil {
		t.Fatal(err)
	}
	if f.NASes == 0 {
		t.Fatal("no common ASes")
	}
	// §7's promise: fusion at least matches each input's recall.
	if f.FusedRecall < f.KDERecall-1e-9 || f.FusedRecall < f.TraceRecall-1e-9 {
		t.Errorf("fusion recall %.1f%% below inputs (KDE %.1f%%, traceroute %.1f%%)",
			f.FusedRecall, f.KDERecall, f.TraceRecall)
	}
	// Fusion never shrinks the set.
	if f.FusedPoPs < f.KDEPoPs-1e-9 {
		t.Errorf("fusion set %.2f smaller than KDE set %.2f", f.FusedPoPs, f.KDEPoPs)
	}
	if !strings.Contains(f.Render(), "fusion") {
		t.Error("render malformed")
	}
}

func TestPredictExperiment(t *testing.T) {
	env := sharedEnv(t)
	p, err := RunPredict(env)
	if err != nil {
		t.Fatal(err)
	}
	if p.NASes == 0 {
		t.Fatal("no evaluable ASes")
	}
	// The generalized §6 finding: a geography-based predictor is
	// measurably incomplete — some ASes exceed the predicted upstream
	// richness, and some real IXP memberships are remote.
	if p.UpstreamUnderCount <= 0 {
		t.Error("no AS exceeded the predicted upstream range; the §6 surprise should generalize")
	}
	if p.RemoteShare <= 0 {
		t.Error("no remote IXP memberships; the §6 remote-peering finding should generalize")
	}
	if p.IXPRecall <= 0 || p.IXPRecall > 1 || p.IXPPrecision < 0 || p.IXPPrecision > 1 {
		t.Errorf("degenerate IXP scores: precision %.2f recall %.2f", p.IXPPrecision, p.IXPRecall)
	}
	out := p.Render()
	if !strings.Contains(out, "remote peering") {
		t.Error("render malformed")
	}
}

func TestPeerGeoExperiment(t *testing.T) {
	env := sharedEnv(t)
	p, err := RunPeerGeo(env)
	if err != nil {
		t.Fatal(err)
	}
	if p.PeerPairs == 0 || p.ControlPairs == 0 {
		t.Fatalf("empty pair sets: %+v", p)
	}
	// The §1 motivation quantified: peering pairs overlap geographically
	// more than random co-regional pairs.
	if p.PeerAnyOverlap <= p.ControlAnyOverlap {
		t.Errorf("peer overlap rate %.2f not above control %.2f", p.PeerAnyOverlap, p.ControlAnyOverlap)
	}
	if !strings.Contains(p.Render(), "Peering geography") {
		t.Error("render malformed")
	}
}

func TestStabilityExperiment(t *testing.T) {
	env := sharedEnv(t)
	s, err := RunStability(env, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.CommonAS == 0 {
		t.Fatal("no common ASes across months")
	}
	// Footprints must be substantially stable across independent crawls
	// — the implicit assumption of a six-month measurement window.
	if s.MeanConsecutiveJaccard < 0.6 {
		t.Errorf("consecutive-month Jaccard %.3f too low; method unstable under resampling", s.MeanConsecutiveJaccard)
	}
	if s.ASRetention < 0.7 {
		t.Errorf("AS retention %.2f too low", s.ASRetention)
	}
	if _, err := RunStability(env, 1); err == nil {
		t.Error("months=1 accepted")
	}
	if !strings.Contains(s.Render(), "Temporal stability") {
		t.Error("render malformed")
	}
}

func TestDensityExperiment(t *testing.T) {
	env := sharedEnv(t)
	d, err := RunDensity(env)
	if err != nil {
		t.Fatal(err)
	}
	if d.NASes == 0 || d.PairsScored == 0 {
		t.Fatalf("nothing scored: %+v", d)
	}
	// The §4.2 densities must track ground-truth presence: generator
	// shares are pop^0.85-weighted, KDE mass shares follow user counts,
	// so the rank correlation should be strongly positive.
	if d.MeanSpearman < 0.5 {
		t.Errorf("mean Spearman %.3f < 0.5; density values do not track presence", d.MeanSpearman)
	}
	if !strings.Contains(d.Render(), "Spearman") {
		t.Error("render malformed")
	}
}

func TestServicesExperiment(t *testing.T) {
	env := sharedEnv(t)
	s, err := RunServices(env)
	if err != nil {
		t.Fatal(err)
	}
	if s.Residential == 0 || s.Content == 0 {
		t.Skipf("class imbalance at this seed: %d residential, %d content", s.Residential, s.Content)
	}
	// A majority-class guesser scores 0.5 balanced accuracy; the
	// footprint features must demonstrate real signal above that.
	if s.BalancedAccuracy <= 0.6 {
		t.Errorf("balanced accuracy %.2f not above 0.6 (chance = 0.5)", s.BalancedAccuracy)
	}
	if s.Recall == 0 {
		t.Error("classifier never identifies content ASes")
	}
	if !strings.Contains(s.Render(), "Residential vs content") {
		t.Error("render malformed")
	}
}

func TestCrawlQualityExperiment(t *testing.T) {
	env := sharedEnv(t)
	cq, err := RunCrawlQuality(env, []float64{1.0, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(cq.Rows) != 2 {
		t.Fatalf("rows = %d", len(cq.Rows))
	}
	full, quarter := cq.Rows[0], cq.Rows[1]
	if quarter.CrawledPeers >= full.CrawledPeers {
		t.Errorf("quarter crawl %d >= full %d", quarter.CrawledPeers, full.CrawledPeers)
	}
	// Less effort ⇒ fewer eligible ASes (the peer floor bites) and no
	// richer footprints.
	if quarter.EligibleASes > full.EligibleASes {
		t.Errorf("quarter scale admitted more ASes (%d > %d)", quarter.EligibleASes, full.EligibleASes)
	}
	// Like-for-like over the common AS set: fewer samples never enrich a
	// footprint. (The naive per-scale mean CAN rise at low scale — only
	// big ASes survive the floor — which is why the common-set column
	// exists.)
	// A reduced-scale crawl is an independent draw, not a subsample, so
	// allow sampling noise around equality.
	if quarter.MeanPoPsCommon > full.MeanPoPsCommon+0.2 {
		t.Errorf("quarter scale found richer common-set footprints (%.2f > %.2f)",
			quarter.MeanPoPsCommon, full.MeanPoPsCommon)
	}
	if _, err := RunCrawlQuality(env, []float64{-1}); err == nil {
		t.Error("negative scale accepted")
	}
	if !strings.Contains(cq.Render(), "sensitivity") {
		t.Error("render malformed")
	}
}

// TestRebuildsUseEnvPeerFloor: the stability and crawl-quality rebuilds
// condition with the environment's own thresholds, so a floor the
// environment was built with (e.g. the paper's 1000 under -paper) holds
// in every rebuild too.
func TestRebuildsUseEnvPeerFloor(t *testing.T) {
	e := *sharedEnv(t)
	e.PipeCfg.MinPeers = 90
	cfg := e.PipeCfg
	cfg.Obs, cfg.Faults = nil, nil
	eligible := func(seed uint64) map[astopo.ASN]bool {
		t.Helper()
		ds, _, err := pipeline.Run(context.Background(), e.World, p2p.DefaultConfig(), cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[astopo.ASN]bool, len(ds.Order))
		for _, asn := range ds.Order {
			out[asn] = true
		}
		return out
	}

	t.Run("crawl-quality", func(t *testing.T) {
		cq, err := RunCrawlQuality(&e, []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cq.Rows[0].EligibleASes, len(eligible(e.Seed+7777)); got != want {
			t.Errorf("rebuild kept %d eligible ASes, a build at the environment's floor keeps %d", got, want)
		}
	})
	t.Run("stability", func(t *testing.T) {
		st, err := RunStability(&e, 2)
		if err != nil {
			t.Fatal(err)
		}
		first, second := eligible(e.Seed+1000), eligible(e.Seed+1001)
		common := 0
		for asn := range first {
			if second[asn] {
				common++
			}
		}
		if st.CommonAS != common {
			t.Errorf("rebuilds share %d eligible ASes, builds at the environment's floor share %d", st.CommonAS, common)
		}
	})
}
