package pipeline

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"eyeballas/internal/faults"
	"eyeballas/internal/p2p"
	"eyeballas/internal/parallel"
)

// equalDatasets compares two builds structurally (the Funnel pointer is
// excluded; its counts surface through Drops and the totals).
func equalDatasets(t *testing.T, label string, a, b *Dataset) {
	t.Helper()
	if a.TotalPeers != b.TotalPeers || a.CrawledPeers != b.CrawledPeers {
		t.Errorf("%s: totals differ: %d/%d vs %d/%d",
			label, a.TotalPeers, a.CrawledPeers, b.TotalPeers, b.CrawledPeers)
	}
	if a.Drops != b.Drops {
		t.Errorf("%s: drops differ: %+v vs %+v", label, a.Drops, b.Drops)
	}
	if !reflect.DeepEqual(a.Order, b.Order) {
		t.Fatalf("%s: eligible-AS sets differ (%d vs %d ASes)", label, len(a.Order), len(b.Order))
	}
	for _, asn := range a.Order {
		ra, rb := a.AS(asn), b.AS(asn)
		if len(ra.Samples) != len(rb.Samples) {
			t.Fatalf("%s: AS %d sample counts differ: %d vs %d", label, asn, len(ra.Samples), len(rb.Samples))
		}
		for i := range ra.Samples {
			if !sameSample(ra.Samples[i], rb.Samples[i]) {
				t.Fatalf("%s: AS %d sample %d differs", label, asn, i)
			}
		}
		if ra.Class != rb.Class {
			t.Errorf("%s: AS %d classification differs", label, asn)
		}
	}
}

// TestFaultMatrixZeroRateBitIdentical: an armed plan whose rates are all
// zero must be indistinguishable from no plan at all — across worker
// counts. This is the harness's own null hypothesis: turning the feature
// on cannot move a single byte of the science.
func TestFaultMatrixZeroRateBitIdentical(t *testing.T) {
	w, baseline, _ := setup(t)

	zero := faults.NewPlan(99)
	for _, pt := range faults.Points {
		if err := zero.Set(pt, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 8} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Faults = zero
		ds, _, err := Run(context.Background(), w, p2p.DefaultConfig(), cfg, 71)
		if err != nil {
			t.Fatal(err)
		}
		equalDatasets(t, "zero-rate plan", baseline, ds)
	}
}

// TestFaultMatrixFiveADeterministicAcrossWorkers: at a 5% fault rate the
// dataset must still be byte-identical between Workers=1 and Workers=8 —
// injection decisions are keyed by content, not by schedule.
func TestFaultMatrixDeterministicAcrossWorkers(t *testing.T) {
	w, _, _ := setup(t)
	plan := faults.NewPlan(7)
	for _, pt := range []faults.Point{
		faults.CrawlLoss, faults.CrawlDup, faults.GeoMiss,
		faults.GeoGarbage, faults.GeoNaN, faults.OriginMiss,
	} {
		if err := plan.Set(pt, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	build := func(workers int) *Dataset {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Faults = plan
		ds, _, err := Run(context.Background(), w, p2p.DefaultConfig(), cfg, 71)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	equalDatasets(t, "5% faults", build(1), build(8))
}

// TestFaultMatrixFunnelConservation: with every ingestion fault firing
// at 5%, the funnel must still account for every crawled peer — kept,
// dropped at a peer stage, or inside a dropped AS — and each fault must
// leave its fingerprint in the drop ledger.
func TestFaultMatrixFunnelConservation(t *testing.T) {
	w, clean, _ := setup(t)
	plan := faults.NewPlan(7)
	for _, pt := range []faults.Point{
		faults.CrawlLoss, faults.CrawlDup, faults.GeoMiss,
		faults.GeoGarbage, faults.GeoNaN, faults.OriginMiss,
	} {
		if err := plan.Set(pt, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.Faults = plan
	ds, _, err := Run(context.Background(), w, p2p.DefaultConfig(), cfg, 71)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Funnel.Check(); err != nil {
		t.Fatalf("funnel conservation broken under faults: %v", err)
	}
	if ds.Drops.GarbageCoord == 0 {
		t.Error("geo-garbage/geo-nan at 5% left no garbage_coord drops")
	}
	if ds.Drops.NoCityRecord <= clean.Drops.NoCityRecord {
		t.Errorf("geo-miss at 5%% did not raise no_city drops: %d vs clean %d",
			ds.Drops.NoCityRecord, clean.Drops.NoCityRecord)
	}
	if ds.Drops.UnmappedIP <= clean.Drops.UnmappedIP {
		t.Errorf("origin-miss at 5%% did not raise unmapped drops: %d vs clean %d",
			ds.Drops.UnmappedIP, clean.Drops.UnmappedIP)
	}
	// crawl-dup feeds the dedup stage; the injected duplicates must be
	// absorbed there, not leak into samples.
	if ds.Drops.DupIP <= clean.Drops.DupIP {
		t.Errorf("crawl-dup at 5%% did not raise dup_ip drops: %d vs clean %d",
			ds.Drops.DupIP, clean.Drops.DupIP)
	}
}

// TestFaultMatrixBudgetErrors: fault rates exceeding a configured budget
// must surface as a typed *BudgetError naming the right stage.
func TestFaultMatrixBudgetErrors(t *testing.T) {
	w, _, _ := setup(t)
	cases := []struct {
		name      string
		point     faults.Point
		rate      float64
		wantStage string
		set       func(*Config)
	}{
		{"geolocate", faults.GeoMiss, 0.5, "geolocate",
			func(c *Config) { c.MaxGeoMissFrac = 0.2 }},
		{"origin", faults.OriginMiss, 0.5, "origin",
			func(c *Config) { c.MaxOriginMissFrac = 0.2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := faults.NewPlan(7)
			if err := plan.Set(tc.point, tc.rate); err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Faults = plan
			tc.set(&cfg)
			_, _, err := Run(context.Background(), w, p2p.DefaultConfig(), cfg, 71)
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("got %v, want *BudgetError", err)
			}
			if be.Stage != tc.wantStage {
				t.Errorf("stage %q, want %q", be.Stage, tc.wantStage)
			}
			if be.Frac <= be.Budget {
				t.Errorf("reported frac %.4f not above budget %.4f", be.Frac, be.Budget)
			}
		})
	}
}

// TestFaultMatrixSingleDBFallback: when only the secondary database
// blows the geo budget, SingleDBFallback must rescue the build from the
// primary alone and mark it degraded; without the fallback the same
// plan is a hard *BudgetError.
func TestFaultMatrixSingleDBFallback(t *testing.T) {
	w, _, _ := setup(t)
	plan := faults.NewPlan(7)
	if err := plan.Set(faults.GeoMissB, 0.6); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Faults = plan
	cfg.MaxGeoMissFrac = 0.3

	_, _, err := Run(context.Background(), w, p2p.DefaultConfig(), cfg, 71)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("without fallback: got %v, want *BudgetError", err)
	}

	cfg.SingleDBFallback = true
	ds, _, err := Run(context.Background(), w, p2p.DefaultConfig(), cfg, 71)
	if err != nil {
		t.Fatalf("fallback build failed: %v", err)
	}
	if !ds.Degraded {
		t.Fatal("fallback build not marked Degraded")
	}
	if !strings.Contains(ds.DegradedReason, "single-db fallback") {
		t.Errorf("degraded reason %q", ds.DegradedReason)
	}
	if err := ds.Funnel.Check(); err != nil {
		t.Errorf("fallback funnel conservation broken: %v", err)
	}
	if len(ds.Order) == 0 {
		t.Error("fallback dataset empty")
	}
}

// TestFaultMatrixWorkerPanic: an injected worker panic must come back
// as an error carrying the captured stack — never a crashed test
// process — and a zero-rate run must be unaffected.
func TestFaultMatrixWorkerPanic(t *testing.T) {
	w, _, _ := setup(t)
	plan := faults.NewPlan(7)
	if err := plan.Set(faults.WorkerPanic, 0.001); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Faults = plan
	_, _, err := Run(context.Background(), w, p2p.DefaultConfig(), cfg, 71)
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *parallel.PanicError", err)
	}
	if !strings.Contains(pe.Error(), "injected worker panic") {
		t.Errorf("panic error %q lacks the injected message", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
}
