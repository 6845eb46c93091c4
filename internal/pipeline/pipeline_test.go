package pipeline

import (
	"context"
	"sync"
	"testing"

	"eyeballas/internal/astopo"
	"eyeballas/internal/p2p"
)

// sharedEnv is the fixture every test reads (and none mutates).
type sharedEnv struct {
	world *astopo.World
	ds    *Dataset
	crawl *p2p.Crawl
}

// sharedSetup builds the fixture exactly once. sync.OnceValues (rather
// than a package-level struct mutated inside a sync.Once body) keeps the
// fixture safe under `go test -race -shuffle=on`: every access flows
// through the Once's happens-before edge and there is no package-level
// mutable state to write to at all.
var sharedSetup = sync.OnceValues(func() (*sharedEnv, error) {
	w, err := astopo.Generate(astopo.SmallConfig(71))
	if err != nil {
		return nil, err
	}
	ds, crawl, _, err := RunExport(context.Background(), w, p2p.DefaultConfig(), DefaultConfig(), 71)
	if err != nil {
		return nil, err
	}
	return &sharedEnv{world: w, ds: ds, crawl: crawl}, nil
})

func setup(t *testing.T) (*astopo.World, *Dataset, *p2p.Crawl) {
	t.Helper()
	env, err := sharedSetup()
	if err != nil {
		t.Fatal(err)
	}
	return env.world, env.ds, env.crawl
}

func TestBuildProducesTargetDataset(t *testing.T) {
	_, ds, crawl := setup(t)
	if len(ds.Order) < 10 {
		t.Fatalf("only %d eligible ASes", len(ds.Order))
	}
	if ds.TotalPeers == 0 {
		t.Fatal("no peers in target dataset")
	}
	if ds.TotalPeers >= len(crawl.Peers) {
		t.Error("conditioning removed nothing; filters are vacuous")
	}
	// Conservation: every crawled peer is either kept or accounted as a
	// drop.
	accounted := ds.TotalPeers + ds.Drops.NoCityRecord + ds.Drops.HighGeoErr +
		ds.Drops.UnmappedIP + ds.Drops.DupIP
	// Peers in ASes later dropped (SmallAS / HighErrAS) are neither in
	// TotalPeers nor individually counted, so accounted <= total.
	if accounted > len(crawl.Peers) {
		t.Errorf("accounting exceeds crawl: %d > %d", accounted, len(crawl.Peers))
	}
}

func TestRecordsWellFormed(t *testing.T) {
	_, ds, _ := setup(t)
	cfg := DefaultConfig()
	for _, rec := range ds.Records() {
		if len(rec.Samples) < cfg.MinPeers {
			t.Fatalf("AS %d kept with %d < %d peers", rec.ASN, len(rec.Samples), cfg.MinPeers)
		}
		if rec.P90GeoErrKm > cfg.MaxP90GeoErrKm {
			t.Fatalf("AS %d kept with p90 geo err %.1f", rec.ASN, rec.P90GeoErrKm)
		}
		appSum := 0
		for _, n := range rec.PeersByApp {
			appSum += n
		}
		if appSum < len(rec.Samples) {
			t.Fatalf("AS %d: app counts %d < samples %d", rec.ASN, appSum, len(rec.Samples))
		}
		for _, s := range rec.Samples {
			if s.City == "" || s.Country == "" {
				t.Fatalf("AS %d sample lacks labels: %+v", rec.ASN, s)
			}
			if s.GeoErrKm > cfg.MaxGeoErrKm {
				t.Fatalf("AS %d sample with geo err %.1f", rec.ASN, s.GeoErrKm)
			}
		}
	}
}

// TestGroupingMatchesGroundTruth: grouping via synthetic BGP tables must
// agree with the crawl's ground-truth AS for the overwhelming majority of
// peers (exactly, in this generator, since prefixes are disjoint).
func TestGroupingMatchesGroundTruth(t *testing.T) {
	w, ds, crawl := setup(t)
	truth := map[string]astopo.ASN{}
	for _, p := range crawl.Peers {
		truth[p.IP.String()] = p.TrueASN
	}
	for _, rec := range ds.Records() {
		if w.AS(rec.ASN) == nil {
			t.Fatalf("dataset contains unknown AS %d", rec.ASN)
		}
	}
	// Spot check: every eligible AS actually had crawled peers.
	for _, rec := range ds.Records() {
		found := false
		for _, p := range crawl.Peers {
			if p.TrueASN == rec.ASN {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("AS %d in dataset but never crawled", rec.ASN)
		}
	}
}

func TestClassificationMostlyMatchesGroundTruth(t *testing.T) {
	// The pipeline infers levels from noisy labels; it should agree with
	// the generator's intent for a clear majority of eligible ASes.
	// Disagreement is expected and realistic (geo errors spread an AS's
	// samples), but wholesale failure indicates a bug.
	w, ds, _ := setup(t)
	agree, total := 0, 0
	for _, rec := range ds.Records() {
		a := w.AS(rec.ASN)
		if a.Kind != astopo.KindEyeball && a.Kind != astopo.KindContent {
			continue
		}
		total++
		if rec.Class.Level == a.Level {
			agree++
		}
	}
	if total == 0 {
		t.Fatal("no eyeball ASes in dataset")
	}
	if frac := float64(agree) / float64(total); frac < 0.5 {
		t.Errorf("level agreement %.2f below 0.5 (%d/%d)", frac, agree, total)
	}
}

func TestDropsPopulated(t *testing.T) {
	_, ds, _ := setup(t)
	if ds.Drops.NoCityRecord == 0 {
		t.Error("no NoCityRecord drops; the geodb no-city mode never fired")
	}
	if ds.Drops.HighGeoErr == 0 {
		t.Error("no HighGeoErr drops; the 100 km filter never fired")
	}
	if ds.Drops.SmallAS == 0 {
		t.Error("no SmallAS drops; the peer floor never fired")
	}
}

func TestCaseStudySubjectInDataset(t *testing.T) {
	w, ds, _ := setup(t)
	cs := w.CaseStudy()
	rec := ds.AS(cs.Subject)
	if rec == nil {
		t.Fatal("case-study subject missing from target dataset")
	}
	if rec.Class.Level != astopo.LevelCity {
		t.Errorf("subject classified as %v, want city", rec.Class.Level)
	}
	if rec.Class.Place != "Rome/IT" {
		t.Errorf("subject place = %q", rec.Class.Place)
	}
}

func TestConfigValidation(t *testing.T) {
	_, _, crawl := setup(t)
	for i, cfg := range []Config{
		{MaxGeoErrKm: 0, MaxP90GeoErrKm: 80, MinPeers: 10},
		{MaxGeoErrKm: 100, MaxP90GeoErrKm: 0, MinPeers: 10},
		{MaxGeoErrKm: 100, MaxP90GeoErrKm: 80, MinPeers: 0},
	} {
		if _, err := Build(context.Background(), crawl, nil, nil, nil, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDeterministicRun(t *testing.T) {
	w, ds, _ := setup(t)
	ds2, _, err := Run(context.Background(), w, p2p.DefaultConfig(), DefaultConfig(), 71)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds2.Order) != len(ds.Order) || ds2.TotalPeers != ds.TotalPeers {
		t.Fatalf("runs differ: %d/%d ASes, %d/%d peers",
			len(ds2.Order), len(ds.Order), ds2.TotalPeers, ds.TotalPeers)
	}
	for i := range ds.Order {
		if ds.Order[i] != ds2.Order[i] {
			t.Fatal("AS order differs")
		}
	}
}
