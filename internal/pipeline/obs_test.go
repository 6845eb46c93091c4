package pipeline

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/obs"
	"eyeballas/internal/p2p"
	"eyeballas/internal/parallel"
)

// TestFunnelInvariant is the conservation satellite: every crawled peer
// is either in the final dataset, dropped at a peer-level stage, or
// inside an AS dropped whole — the funnel closes over the crawl exactly.
func TestFunnelInvariant(t *testing.T) {
	_, ds, crawl := setup(t)

	if ds.Funnel == nil {
		t.Fatal("Dataset.Funnel must be populated even without a registry")
	}
	if err := ds.Funnel.Check(); err != nil {
		t.Fatalf("funnel conservation violated: %v", err)
	}
	if ds.CrawledPeers != len(crawl.Peers) {
		t.Fatalf("CrawledPeers = %d, want %d", ds.CrawledPeers, len(crawl.Peers))
	}

	stages := ds.Funnel.Stages()
	if len(stages) != 4 {
		t.Fatalf("got %d stages, want 4", len(stages))
	}
	geo, cond := stages[0], stages[3]
	if got := geo.InCount(); got != int64(len(crawl.Peers)) {
		t.Fatalf("geolocate in = %d, want crawl size %d", got, len(crawl.Peers))
	}
	if got := cond.OutCount(); got != int64(ds.TotalPeers) {
		t.Fatalf("condition out = %d, want TotalPeers %d", got, ds.TotalPeers)
	}

	// The exact ISSUE invariant: crawl == kept + peer-level drops +
	// peers inside dropped ASes.
	peerDrops := int64(ds.Drops.NoCityRecord + ds.Drops.HighGeoErr + ds.Drops.UnmappedIP + ds.Drops.DupIP)
	asDropPeers := cond.DropCount("small_as") + cond.DropCount("high_err_as")
	if got := int64(ds.TotalPeers) + peerDrops + asDropPeers; got != int64(len(crawl.Peers)) {
		t.Fatalf("accounting leaks: kept %d + peer drops %d + AS-drop peers %d = %d != crawl %d",
			ds.TotalPeers, peerDrops, asDropPeers, got, len(crawl.Peers))
	}

	// Drops must be an exact view over the funnel.
	if int64(ds.Drops.NoCityRecord) != geo.DropCount("no_city") ||
		int64(ds.Drops.HighGeoErr) != geo.DropCount("high_geo_err") ||
		int64(ds.Drops.UnmappedIP) != stages[1].DropCount("unmapped_ip") ||
		int64(ds.Drops.DupIP) != stages[2].DropCount("dup_ip") {
		t.Fatalf("Drops diverged from funnel: %+v vs %s", ds.Drops, ds.Funnel.Summary())
	}
}

func buildOrigins(t *testing.T, w *astopo.World) *bgp.OriginTable {
	t.Helper()
	routing := bgp.ComputeRouting(w)
	var ribs []*bgp.RIB
	for _, a := range w.ASes() {
		if a.Kind != astopo.KindTier1 {
			continue
		}
		rib, err := bgp.BuildRIB(w, routing, a.ASN)
		if err != nil {
			t.Fatal(err)
		}
		if ribs = append(ribs, rib); len(ribs) == 3 {
			break
		}
	}
	return bgp.NewOriginTable(ribs...)
}

// TestDatasetIdenticalWithRegistry extends the determinism proof to an
// active observability registry: metrics on, metrics off, and every
// worker count must all produce bit-identical datasets.
func TestDatasetIdenticalWithRegistry(t *testing.T) {
	w, _, _ := setup(t)

	run := func(workers int, reg *obs.Registry) *Dataset {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Obs = reg
		if reg != nil {
			// Include the pool metrics so their timing hooks are active
			// during the run.
			parallel.SetMetrics(parallel.MetricsFrom(reg))
			defer parallel.SetMetrics(nil)
		}
		ds, _, err := Run(context.Background(), w, p2p.DefaultConfig(), cfg, 71)
		if err != nil {
			t.Fatalf("workers=%d obs=%v: %v", workers, reg != nil, err)
		}
		return ds
	}

	bare := run(1, nil)
	instrumentedSerial := run(1, obs.New())
	instrumentedWide := run(8, obs.New())
	assertDatasetsIdentical(t, bare, instrumentedSerial)
	assertDatasetsIdentical(t, bare, instrumentedWide)
}

// TestRegistryExposesPipelineMetrics checks the wiring end to end: one
// instrumented Run must populate the crawl counters, the
// shard-aggregated origin-lookup counter, the per-AS P90 histogram, and
// the funnel families. (Stage spans come from the trace in the context;
// TestRunStageSpans pins their shape.)
func TestRegistryExposesPipelineMetrics(t *testing.T) {
	w, _, crawl := setup(t)
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.Obs = reg
	ds, _, err := Run(context.Background(), w, p2p.DefaultConfig(), cfg, 71)
	if err != nil {
		t.Fatal(err)
	}

	// Shard-aggregated origin lookups: one per peer surviving geolocation.
	wantLookups := int64(len(crawl.Peers) - ds.Drops.NoCityRecord - ds.Drops.HighGeoErr)
	if got := reg.Counter("eyeball_bgp_origin_lookups_total").Value(); got != wantLookups {
		t.Fatalf("origin lookups = %d, want %d", got, wantLookups)
	}

	// Crawl counters: per-app peers sum to the crawl size.
	var peers int64
	for _, app := range p2p.Apps {
		peers += reg.Counter("eyeball_crawl_peers_total", "app", app.String()).Value()
	}
	if peers != int64(len(crawl.Peers)) {
		t.Fatalf("crawl peer counters sum to %d, want %d", peers, len(crawl.Peers))
	}

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		"eyeball_pipeline_as_p90_geoerr_km_bucket",
		`eyeball_funnel_peers_total{funnel="pipeline",stage="geolocate",dir="in"}`,
		`eyeball_funnel_drops_total{funnel="pipeline",stage="condition",reason="small_as"}`,
		"eyeball_bgp_origin_prefixes",
		"eyeball_bgp_compiles_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Per-AS drop counters agree with Drops.
	if got := reg.Counter("eyeball_pipeline_as_dropped_total", "reason", "small_as").Value(); got != int64(ds.Drops.SmallAS) {
		t.Fatalf("small_as AS counter = %d, want %d", got, ds.Drops.SmallAS)
	}
}
