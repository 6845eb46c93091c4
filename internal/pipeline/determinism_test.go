package pipeline

import (
	"context"
	"math"
	"testing"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/core"
	"eyeballas/internal/geodb"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/p2p"
)

// sameSample reports whether two samples from separate builds are
// identical: the same Float64bits in Loc and GeoErrKm, and equal Place
// values. Each build interns its labels in its own table, so the Place
// pointers of two builds never match.
func sameSample(a, b core.Sample) bool {
	return math.Float64bits(a.Loc.Lat) == math.Float64bits(b.Loc.Lat) &&
		math.Float64bits(a.Loc.Lon) == math.Float64bits(b.Loc.Lon) &&
		math.Float64bits(a.GeoErrKm) == math.Float64bits(b.GeoErrKm) &&
		(a.Place == nil) == (b.Place == nil) && a.Labels() == b.Labels()
}

// assertDatasetsIdentical is the bit-level dataset comparison shared by
// the determinism tests: same AS order, same drop counters, same
// per-sample fields bit-for-bit.
func assertDatasetsIdentical(t *testing.T, serial, wide *Dataset) {
	t.Helper()
	if len(serial.Order) != len(wide.Order) {
		t.Fatalf("AS counts differ: %d vs %d", len(serial.Order), len(wide.Order))
	}
	for i := range serial.Order {
		if serial.Order[i] != wide.Order[i] {
			t.Fatalf("Order[%d] differs: %d vs %d", i, serial.Order[i], wide.Order[i])
		}
	}
	if serial.Drops != wide.Drops {
		t.Fatalf("drop counters differ: %+v vs %+v", serial.Drops, wide.Drops)
	}
	if serial.TotalPeers != wide.TotalPeers {
		t.Fatalf("TotalPeers differs: %d vs %d", serial.TotalPeers, wide.TotalPeers)
	}
	for _, asn := range serial.Order {
		a, b := serial.AS(asn), wide.AS(asn)
		if a.Class != b.Class || a.Region != b.Region {
			t.Fatalf("AS %d classification differs: %v/%v vs %v/%v",
				asn, a.Class, a.Region, b.Class, b.Region)
		}
		if math.Float64bits(a.P90GeoErrKm) != math.Float64bits(b.P90GeoErrKm) {
			t.Fatalf("AS %d p90 differs bitwise: %v vs %v", asn, a.P90GeoErrKm, b.P90GeoErrKm)
		}
		if len(a.Samples) != len(b.Samples) {
			t.Fatalf("AS %d sample counts differ: %d vs %d", asn, len(a.Samples), len(b.Samples))
		}
		for i := range a.Samples {
			if sa, sb := a.Samples[i], b.Samples[i]; !sameSample(sa, sb) {
				t.Fatalf("AS %d sample %d differs: %v %+v %v vs %v %+v %v",
					asn, i, sa.Loc, sa.Labels(), sa.GeoErrKm, sb.Loc, sb.Labels(), sb.GeoErrKm)
			}
		}
		if len(a.PeersByApp) != len(b.PeersByApp) {
			t.Fatalf("AS %d app maps differ", asn)
		}
		for app, n := range a.PeersByApp {
			if b.PeersByApp[app] != n {
				t.Fatalf("AS %d app %v count differs: %d vs %d", asn, app, n, b.PeersByApp[app])
			}
		}
	}
}

// TestRunDeterministicAcrossWorkers is the pipeline's half of the
// determinism guarantee: a full Run with Workers=1 and Workers=8 must
// produce byte-identical datasets — same AS order, same drop counters,
// same per-sample fields bit-for-bit — because every parallel stage is
// index-addressed and aggregation applies results in a fixed order.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	w, _, _ := setup(t)

	run := func(workers int) *Dataset {
		cfg := DefaultConfig()
		cfg.Workers = workers
		ds, _, err := Run(context.Background(), w, p2p.DefaultConfig(), cfg, 71)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return ds
	}
	serial := run(1)
	wide := run(8)
	assertDatasetsIdentical(t, serial, wide)
}

// trieOrigins adapts an OriginTable to its uncompiled reference path, so
// Build can be run against the mutable radix trie.
type trieOrigins struct{ ot *bgp.OriginTable }

func (r trieOrigins) OriginOf(a ipnet.Addr) (astopo.ASN, bool) {
	return r.ot.OriginOfUncompiled(a)
}

// TestBuildCompiledMatchesTriePath is the compiled-LPM half of the
// determinism guarantee: running the full Build stage with origin
// lookups served by the compiled flat table must produce a dataset
// bit-identical to one served by the mutable radix trie — the compilation
// wiring changes performance only, never output.
func TestBuildCompiledMatchesTriePath(t *testing.T) {
	w, _, crawl := setup(t)

	// Reconstruct Run's origin table for the shared fixture's world.
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
	origins := bgp.NewOriginTable(ribs...)
	dbA, dbB := geodb.NewGeoCity(w), geodb.NewIPLoc(w)

	compiled, err := Build(context.Background(), crawl, dbA, dbB, origins, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	trie, err := Build(context.Background(), crawl, dbA, dbB, trieOrigins{origins}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsIdentical(t, compiled, trie)
}

// TestFootprintGridDeterministicAcrossWorkers closes the loop end-to-end:
// the KDE surface of a real conditioned AS (not a synthetic sample cloud)
// must be bit-identical between a serial and a wide run.
func TestFootprintGridDeterministicAcrossWorkers(t *testing.T) {
	w, ds, _ := setup(t)
	if len(ds.Order) == 0 {
		t.Fatal("empty dataset")
	}
	// Use the best-sampled AS so the grid is non-trivial.
	rec := ds.AS(ds.Order[0])
	for _, asn := range ds.Order[1:] {
		if r := ds.AS(asn); len(r.Samples) > len(rec.Samples) {
			rec = r
		}
	}
	fp1, err := core.EstimateFootprint(w.Gazetteer, rec.Samples, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fp8, err := core.EstimateFootprint(w.Gazetteer, rec.Samples, core.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if fp1.Grid.W != fp8.Grid.W || fp1.Grid.H != fp8.Grid.H {
		t.Fatalf("grid geometry differs: %dx%d vs %dx%d", fp1.Grid.W, fp1.Grid.H, fp8.Grid.W, fp8.Grid.H)
	}
	for i := range fp1.Grid.Data {
		if math.Float64bits(fp1.Grid.Data[i]) != math.Float64bits(fp8.Grid.Data[i]) {
			t.Fatalf("grid cell %d differs bitwise: %.17g vs %.17g",
				i, fp1.Grid.Data[i], fp8.Grid.Data[i])
		}
	}
	if math.Float64bits(fp1.Dmax) != math.Float64bits(fp8.Dmax) {
		t.Fatalf("Dmax differs: %v vs %v", fp1.Dmax, fp8.Dmax)
	}
	if len(fp1.PoPs) != len(fp8.PoPs) {
		t.Fatalf("PoP counts differ: %d vs %d", len(fp1.PoPs), len(fp8.PoPs))
	}
	for i := range fp1.PoPs {
		if fp1.PoPs[i].City != fp8.PoPs[i].City ||
			math.Float64bits(fp1.PoPs[i].Density) != math.Float64bits(fp8.PoPs[i].Density) {
			t.Fatalf("PoP %d differs: %+v vs %+v", i, fp1.PoPs[i], fp8.PoPs[i])
		}
	}
}
