package snapshot

import (
	"bytes"
	"math"
	"testing"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/core"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/obs"
	"eyeballas/internal/p2p"
	"eyeballas/internal/pipeline"
)

// testSnapshot builds a small synthetic artifact exercising every
// format feature: multiple AS records with float edge cases (NaN, ±Inf,
// -0), empty and non-empty string fields, sparse per-app counters, a
// multi-stage funnel, streaming stats, and a nested-prefix LPM.
// Accepts a nil t (the fuzz seed corpus is built outside a T).
func testSnapshot(t testing.TB) *Snapshot {
	if t != nil {
		t.Helper()
	}
	f := obs.NewFunnel("pipeline")
	geoStage := f.Stage("geolocate").DeclareReasons("no_city_record", "garbage_coord", "high_geo_err")
	geoStage.In(1000)
	geoStage.Drop("no_city_record", 40)
	geoStage.Drop("high_geo_err", 60)
	geoStage.Out(900)
	cond := f.Stage("condition").DeclareReasons("small_as")
	cond.In(900)
	cond.Drop("small_as", 100)
	cond.Out(800)

	recA := &pipeline.ASRecord{
		ASN:   7,
		Users: 600,
		Samples: []core.Sample{
			{Loc: geo.Point{Lat: 45.4642, Lon: 9.19}, Place: &core.Place{City: "Milan", State: "MI", Country: "IT", Region: gazetteer.EU}, GeoErrKm: 12.5},
			{Loc: geo.Point{Lat: math.Copysign(0, -1), Lon: -180}, Place: &core.Place{City: "Null Island W", Country: "XX", Region: gazetteer.Other}, GeoErrKm: math.Inf(1)},
			{Loc: geo.Point{Lat: math.NaN(), Lon: math.NaN()}, Place: &core.Place{Region: gazetteer.Other}, GeoErrKm: math.NaN()},
		},
		PeersByApp:  map[p2p.App]int{p2p.Kad: 400, p2p.BitTorrent: 200},
		Class:       core.Classification{Level: astopo.LevelCity, Place: "Milan/IT", Share: 0.971},
		Region:      gazetteer.EU,
		P90GeoErrKm: 31.25,
	}
	recB := &pipeline.ASRecord{
		ASN:         9,
		Users:       200,
		Samples:     []core.Sample{{Loc: geo.Point{Lat: -33.87, Lon: 151.21}, Place: &core.Place{City: "Sydney", Country: "AU", Region: gazetteer.OC}}},
		PeersByApp:  map[p2p.App]int{p2p.Gnutella: 200},
		Class:       core.Classification{Level: astopo.LevelGlobal, Share: math.NaN()},
		Region:      gazetteer.OC,
		P90GeoErrKm: math.Inf(1),
	}
	recC := &pipeline.ASRecord{ASN: 4000000000, Users: 0, Class: core.Classification{Level: astopo.LevelCountry, Place: "AU"}, Region: gazetteer.OC}

	ds := &pipeline.Dataset{
		ASes:           map[astopo.ASN]*pipeline.ASRecord{7: recA, 9: recB, 4000000000: recC},
		Order:          []astopo.ASN{7, 9, 4000000000},
		Drops:          pipeline.Drops{NoCityRecord: 40, HighGeoErr: 60, SmallAS: 100, DupIP: 3},
		TotalPeers:     800,
		CrawledPeers:   1000,
		Funnel:         f,
		Degraded:       true,
		DegradedReason: "single-db fallback",
		Stream:         &pipeline.StreamStats{BatchSize: 4096, Batches: 12, MaxBatch: 4096, DedupEntries: 812, PeakLiveSamples: 800},
	}

	tbl := ipnet.NewTable[astopo.ASN]()
	for _, e := range []struct {
		cidr string
		asn  astopo.ASN
	}{
		{"10.0.0.0/8", 7},
		{"10.1.0.0/16", 9}, // nested inside 10/8
		{"10.1.2.0/24", 7}, // nested two deep
		{"192.168.0.0/16", 9},
		{"0.0.0.0/1", 4000000000},
	} {
		p, err := ipnet.ParsePrefix(e.cidr)
		if err != nil {
			panic(err) // fixed literals; also reachable with nil t from fuzz seeding
		}
		tbl.Insert(p, e.asn)
	}
	origins := bgp.NewOriginTableFromCompiled(tbl.Compile())

	return &Snapshot{
		Meta:    Meta{Seed: 42, Label: "test"},
		Dataset: ds,
		Origins: origins,
	}
}

// f64eq compares floats at the bit level (NaN == NaN, -0 != +0), the
// same identity the pipeline's determinism tests use.
func f64eq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// assertSnapshotsIdentical requires got to reproduce want bit for bit:
// every counter, every string, every Float64bits, the funnel ledger in
// order, and identical LPM answers across the address space.
func assertSnapshotsIdentical(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if got.Meta != want.Meta {
		t.Errorf("meta: got %+v want %+v", got.Meta, want.Meta)
	}
	w, g := want.Dataset, got.Dataset
	if g.CrawledPeers != w.CrawledPeers || g.TotalPeers != w.TotalPeers {
		t.Errorf("peer totals: got (%d,%d) want (%d,%d)", g.CrawledPeers, g.TotalPeers, w.CrawledPeers, w.TotalPeers)
	}
	if g.Degraded != w.Degraded || g.DegradedReason != w.DegradedReason {
		t.Errorf("degraded: got (%v,%q) want (%v,%q)", g.Degraded, g.DegradedReason, w.Degraded, w.DegradedReason)
	}
	if g.Drops != w.Drops {
		t.Errorf("drops: got %+v want %+v", g.Drops, w.Drops)
	}
	if (g.Stream == nil) != (w.Stream == nil) {
		t.Fatalf("stream presence: got %v want %v", g.Stream != nil, w.Stream != nil)
	}
	if w.Stream != nil && *g.Stream != *w.Stream {
		t.Errorf("stream stats: got %+v want %+v", *g.Stream, *w.Stream)
	}

	// Funnel ledger: name, stage order, in/out, drop rows in order.
	if g.Funnel.Name() != w.Funnel.Name() {
		t.Errorf("funnel name: got %q want %q", g.Funnel.Name(), w.Funnel.Name())
	}
	ws, gs := w.Funnel.Stages(), g.Funnel.Stages()
	if len(gs) != len(ws) {
		t.Fatalf("funnel stages: got %d want %d", len(gs), len(ws))
	}
	for i := range ws {
		if gs[i].Name() != ws[i].Name() || gs[i].InCount() != ws[i].InCount() || gs[i].OutCount() != ws[i].OutCount() {
			t.Errorf("stage %d: got (%s,%d,%d) want (%s,%d,%d)", i,
				gs[i].Name(), gs[i].InCount(), gs[i].OutCount(),
				ws[i].Name(), ws[i].InCount(), ws[i].OutCount())
		}
	}
	wd, gd := w.Funnel.Drops(), g.Funnel.Drops()
	if len(gd) != len(wd) {
		t.Fatalf("funnel drop rows: got %d want %d", len(gd), len(wd))
	}
	for i := range wd {
		if gd[i] != wd[i] {
			t.Errorf("drop row %d: got %+v want %+v", i, gd[i], wd[i])
		}
	}

	// Per-AS records.
	if len(g.Order) != len(w.Order) {
		t.Fatalf("order: got %d ASes want %d", len(g.Order), len(w.Order))
	}
	for i, asn := range w.Order {
		if g.Order[i] != asn {
			t.Fatalf("order[%d]: got AS%d want AS%d", i, g.Order[i], asn)
		}
		wr, gr := w.ASes[asn], g.ASes[asn]
		if gr == nil {
			t.Fatalf("AS%d missing from read-back map", asn)
		}
		if gr.ASN != wr.ASN || gr.Users != wr.Users {
			t.Errorf("AS%d identity: got (%d,%d) want (%d,%d)", asn, gr.ASN, gr.Users, wr.ASN, wr.Users)
		}
		if !f64eq(gr.P90GeoErrKm, wr.P90GeoErrKm) {
			t.Errorf("AS%d p90: got %v want %v", asn, gr.P90GeoErrKm, wr.P90GeoErrKm)
		}
		if gr.Class.Level != wr.Class.Level || gr.Class.Place != wr.Class.Place || !f64eq(gr.Class.Share, wr.Class.Share) {
			t.Errorf("AS%d class: got %+v want %+v", asn, gr.Class, wr.Class)
		}
		if gr.Region != wr.Region {
			t.Errorf("AS%d region: got %q want %q", asn, gr.Region, wr.Region)
		}
		if len(gr.PeersByApp) != len(wr.PeersByApp) {
			t.Errorf("AS%d apps: got %d want %d", asn, len(gr.PeersByApp), len(wr.PeersByApp))
		}
		for app, n := range wr.PeersByApp {
			if gr.PeersByApp[app] != n {
				t.Errorf("AS%d %s peers: got %d want %d", asn, app, gr.PeersByApp[app], n)
			}
		}
		if len(gr.Samples) != len(wr.Samples) {
			t.Fatalf("AS%d samples: got %d want %d", asn, len(gr.Samples), len(wr.Samples))
		}
		for j, wsamp := range wr.Samples {
			gsamp := gr.Samples[j]
			if !f64eq(gsamp.Loc.Lat, wsamp.Loc.Lat) || !f64eq(gsamp.Loc.Lon, wsamp.Loc.Lon) || !f64eq(gsamp.GeoErrKm, wsamp.GeoErrKm) {
				t.Errorf("AS%d sample %d floats: got %+v want %+v", asn, j, gsamp, wsamp)
			}
			if gsamp.City != wsamp.City || gsamp.State != wsamp.State || gsamp.Country != wsamp.Country || gsamp.Region != wsamp.Region {
				t.Errorf("AS%d sample %d labels: got %+v want %+v", asn, j, gsamp, wsamp)
			}
		}
	}

	// Origin table: same presence, same prefixes, same answers.
	if (got.Origins == nil) != (want.Origins == nil) {
		t.Fatalf("origins presence: got %v want %v", got.Origins != nil, want.Origins != nil)
	}
	if want.Origins == nil {
		return
	}
	wc, gc := want.Origins.Compiled(), got.Origins.Compiled()
	if gc.Len() != wc.Len() || gc.Segments() != wc.Segments() {
		t.Fatalf("compiled shape: got (%d,%d) want (%d,%d)", gc.Len(), gc.Segments(), wc.Len(), wc.Segments())
	}
	wp, wv, wst, wsi := wc.Dump()
	gp, gv, gst, gsi := gc.Dump()
	for i := range wp {
		if gp[i] != wp[i] || gv[i] != wv[i] {
			t.Errorf("prefix %d: got (%s,%d) want (%s,%d)", i, gp[i], gv[i], wp[i], wv[i])
		}
	}
	for k := range wst {
		if gst[k] != wst[k] || gsi[k] != wsi[k] {
			t.Errorf("segment %d: got (%s,%d) want (%s,%d)", k, gst[k], gsi[k], wst[k], wsi[k])
		}
	}
	// Probe lookups across the space, including segment boundaries.
	probes := []ipnet.Addr{0, 1, ipnet.MakeAddr(9, 255, 255, 255), ipnet.MakeAddr(10, 0, 0, 0),
		ipnet.MakeAddr(10, 1, 2, 3), ipnet.MakeAddr(10, 1, 3, 0), ipnet.MakeAddr(127, 255, 255, 255),
		ipnet.MakeAddr(128, 0, 0, 0), ipnet.MakeAddr(192, 168, 4, 4), ^ipnet.Addr(0)}
	for _, a := range probes {
		wasn, wok := want.Origins.OriginOf(a)
		gasn, gok := got.Origins.OriginOf(a)
		if wasn != gasn || wok != gok {
			t.Errorf("OriginOf(%s): got (%d,%v) want (%d,%v)", a, gasn, gok, wasn, wok)
		}
	}
}

func TestRoundTripIdentity(t *testing.T) {
	snap := testSnapshot(t)
	data := Encode(snap)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	assertSnapshotsIdentical(t, snap, got)
}

func TestEncodeDeterministic(t *testing.T) {
	// Same contents → same bytes, including after a round trip (so no
	// map-order or rebuild artifact leaks into the encoding).
	a := Encode(testSnapshot(t))
	b := Encode(testSnapshot(t))
	if !bytes.Equal(a, b) {
		t.Fatalf("two encodes of equal snapshots differ (%d vs %d bytes)", len(a), len(b))
	}
	decoded, err := Decode(a)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	c := Encode(decoded)
	if !bytes.Equal(a, c) {
		t.Fatalf("re-encoding a decoded snapshot changed the bytes (%d vs %d)", len(a), len(c))
	}
}

func TestRoundTripWithoutOptionalSections(t *testing.T) {
	snap := testSnapshot(t)
	snap.Origins = nil
	snap.Dataset.Stream = nil
	snap.Dataset.Funnel = nil
	data := Encode(snap)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Origins != nil {
		t.Errorf("origins: got non-nil for dataset-only artifact")
	}
	if got.Dataset.Stream != nil || got.Dataset.Funnel != nil {
		t.Errorf("optional dataset parts resurrected: stream=%v funnel=%v", got.Dataset.Stream, got.Dataset.Funnel)
	}
	if got.Dataset.TotalPeers != snap.Dataset.TotalPeers || len(got.Dataset.Order) != len(snap.Dataset.Order) {
		t.Errorf("dataset core fields lost")
	}
}

func TestWriteReadFile(t *testing.T) {
	snap := testSnapshot(t)
	path := t.TempDir() + "/a.snap"
	if err := WriteFile(path, snap); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	assertSnapshotsIdentical(t, snap, got)
}

// TestRoundTripPipelineDataset runs the real pipeline on a tiny world
// and proves the artifact reproduces its dataset and origin table —
// the property the serving layer's bit-identical guarantee rests on.
func TestRoundTripPipelineDataset(t *testing.T) {
	snap := smallWorldSnapshot(t)
	got, err := Decode(Encode(snap))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	assertSnapshotsIdentical(t, snap, got)
}
