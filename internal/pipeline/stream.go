package pipeline

import (
	"context"
	"fmt"
	"time"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/core"
	"eyeballas/internal/faults"
	"eyeballas/internal/geodb"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/obs"
	"eyeballas/internal/p2p"
	"eyeballas/internal/parallel"
	"eyeballas/internal/stats"
	"eyeballas/internal/trace"
)

// BuildStream runs steps 2–4 of the methodology over a peer stream —
// the bounded-memory ingestion engine behind Run and Build.
//
// Peers are consumed in fixed-size batches (cfg.BatchSize) through the
// worker pool: per-batch locate verdicts are index-addressed, then
// folded serially in stream order into the dataset under construction —
// one unique-IP set for dedup and per-AS accumulators instead of a
// crawl-sized verdict slice. Peak memory is therefore O(kept users +
// batch), not O(crawled peers); with cfg.MaxSamplesPerAS the kept-user
// term shrinks further to O(ASes·cap + dedup set).
//
// Determinism is inherited, not re-argued: batch boundaries depend only
// on the stream and BatchSize (never on workers), folds happen in
// arrival order, fault-injection decisions are keyed by peer identity
// (IP/app), and the panic that surfaces is the one at the lowest
// stream position. The differential harness in stream_diff_test.go
// pins the result bit-identical to the frozen batch reference across
// batch sizes, worker counts, and fault plans.
//
// src must be replayable (see p2p.PeerSource): the single-DB fallback
// re-opens the stream for its rescue pass instead of re-reading a
// materialized crawl. The funnel, budgets, and fault wiring are the
// same as the batch path's; Dataset.Stream additionally reports the
// engine's deterministic memory accounting. When ctx carries a trace,
// the build opens "pipeline.build" under it with "locate", "aggregate"
// and "condition" stage children; "locate" records the time its pass
// spent inside the source (crawl generation, file decoding) as
// "source_ns".
func BuildStream(ctx context.Context, src p2p.PeerSource, dbA, dbB *geodb.DB, origins bgp.Resolver, cfg Config) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("pipeline: BuildStream requires a peer source")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// nil when ctx carries no trace, making every span use below a
	// branch-only no-op.
	span := trace.FromContext(ctx).Child("pipeline.build")
	defer span.End()

	// Fault wiring: identical to the batch path — injection sites key
	// on peer identity, so batching cannot move a decision.
	dbA = dbA.WithFaults(cfg.Faults, faults.GeoMissA)
	if dbB != nil {
		dbB = dbB.WithFaults(cfg.Faults, faults.GeoMissB)
	}
	origins = bgp.WithFaults(origins, cfg.Faults)
	wp := cfg.Faults.Injector(faults.WorkerPanic)

	funnel := obs.NewFunnel("pipeline")
	cfg.Obs.RegisterFunnel(funnel)
	stGeo := funnel.Stage("geolocate").DeclareReasons("no_city", "garbage_coord", "high_geo_err")
	stOrigin := funnel.Stage("origin").DeclareReasons("unmapped_ip")
	stDedup := funnel.Stage("dedup").DeclareReasons("dup_ip")
	stCond := funnel.Stage("condition").DeclareReasons("small_as", "high_err_as")

	ds := &Dataset{Funnel: funnel}

	lookupsC := cfg.Obs.Counter("eyeball_bgp_origin_lookups_total")

	secondary := dbB
	if cfg.SingleDB {
		secondary = nil
		ds.Degraded = true
		ds.DegradedReason = "single-db mode requested (no cross-database error estimates)"
	}

	agg := newStreamAgg(cfg)
	locSpan := span.Child("locate")
	err := streamPass(ctx, locSpan, src, dbA, secondary, origins, cfg, wp, lookupsC, agg)
	locSpan.SetInt("crawled", int64(agg.crawled))
	locSpan.End()
	if err != nil {
		return nil, err
	}
	counts := agg.counts
	n := agg.crawled

	// Geolocate-stage error budget — same rule and same diagnosis
	// strings as the batch path; the fallback rescue replays the stream
	// with the surviving database instead of re-scanning a slice.
	if cfg.MaxGeoMissFrac > 0 && secondary != nil && n > 0 {
		missFrac := float64(counts.noCity+counts.garbage) / float64(n)
		if missFrac > cfg.MaxGeoMissFrac {
			fracA := float64(counts.missA) / float64(n)
			fracB := float64(counts.missB) / float64(n)
			blameA := fracA > cfg.MaxGeoMissFrac
			blameB := fracB > cfg.MaxGeoMissFrac
			if !cfg.SingleDBFallback || blameA == blameB {
				return nil, &BudgetError{
					Stage: "geolocate",
					Reason: fmt.Sprintf("%.4f of %d crawled peers lost to missing/corrupt geolocation records (%s miss frac %.4f, %s miss frac %.4f)",
						missFrac, n, dbA.Name, fracA, dbB.Name, fracB),
					Frac:   missFrac,
					Budget: cfg.MaxGeoMissFrac,
				}
			}
			survivor := dbA
			lostDB, lostFrac := dbB, fracB
			if blameA {
				survivor = dbB
				lostDB, lostFrac = dbA, fracA
			}
			fbSpan := span.Child("locate_single_db_fallback")
			agg = newStreamAgg(cfg)
			err = streamPass(ctx, fbSpan, src, survivor, nil, origins, cfg, wp, lookupsC, agg)
			fbSpan.End()
			if err != nil {
				return nil, err
			}
			if agg.crawled != n {
				return nil, fmt.Errorf("pipeline: fallback replay delivered %d peers, first pass saw %d — peer source is not replayable", agg.crawled, n)
			}
			counts = agg.counts
			ds.Degraded = true
			ds.DegradedReason = fmt.Sprintf(
				"single-db fallback: %s miss fraction %.4f exceeded budget %.4f; rebuilt from %s only (no cross-database error estimates)",
				lostDB.Name, lostFrac, cfg.MaxGeoMissFrac, survivor.Name)
			if cfg.Obs != nil {
				cfg.Obs.Counter("eyeball_pipeline_degraded_builds_total", "reason", "single_db_fallback").Inc()
			}
		}
	}

	// Origin-stage error budget: unmapped peers as a fraction of the
	// peers that survived geolocation.
	geoOut := n - counts.noCity - counts.garbage - counts.highGeoErr
	if cfg.MaxOriginMissFrac > 0 && geoOut > 0 {
		missFrac := float64(counts.unmapped) / float64(geoOut)
		if missFrac > cfg.MaxOriginMissFrac {
			return nil, &BudgetError{
				Stage: "origin",
				Reason: fmt.Sprintf("%.4f of %d geolocated peers matched no BGP prefix",
					missFrac, geoOut),
				Frac:   missFrac,
				Budget: cfg.MaxOriginMissFrac,
			}
		}
	}

	// Aggregation already happened inside the locate pass (each fold
	// merged its batch); this hands the accumulated state to the
	// dataset and publishes the memory watermarks.
	aggSpan := span.Child("aggregate")
	ds.CrawledPeers = n
	agg.finish(ds, cfg)
	aggSpan.End()

	// Flush the peer-level funnel stages once per reason — only now,
	// after the budget gates, matching the batch path's behaviour of
	// leaving a failed build's funnel unflushed.
	stGeo.In(n)
	stGeo.Drop("no_city", counts.noCity)
	stGeo.Drop("garbage_coord", counts.garbage)
	stGeo.Drop("high_geo_err", counts.highGeoErr)
	stGeo.Out(geoOut)
	stOrigin.In(geoOut)
	stOrigin.Drop("unmapped_ip", counts.unmapped)
	originOut := geoOut - counts.unmapped
	stOrigin.Out(originOut)
	stDedup.In(originOut)
	stDedup.Drop("dup_ip", agg.dup)
	stDedup.Out(originOut - agg.dup)
	ds.Drops.NoCityRecord = counts.noCity
	ds.Drops.GarbageCoord = counts.garbage
	ds.Drops.HighGeoErr = counts.highGeoErr
	ds.Drops.UnmappedIP = counts.unmapped
	ds.Drops.DupIP = agg.dup

	condSpan := span.Child("condition")
	out, err := condition(ctx, ds, cfg, stCond, agg.accs)
	if out != nil {
		condSpan.SetInt("ases", int64(len(out.Order)))
	}
	condSpan.End()
	return out, err
}

// streamPass drives one full locate pass over a freshly opened stream,
// folding every batch into agg. It is the streaming analogue of
// runLocate + the aggregation loop, fused so no crawl-sized state ever
// exists. A non-nil span receives the pass's time inside the source as
// "source_ns"; with a nil span no clock is read.
func streamPass(ctx context.Context, span *trace.Span, src p2p.PeerSource, primary, secondary *geodb.DB, origins bgp.Resolver, cfg Config, wp *faults.Injector, lookupsC *obs.Counter, agg *streamAgg) error {
	st, err := src.Stream(ctx)
	if err != nil {
		return err
	}
	if span != nil {
		timed := &timedStream{st: st}
		defer func() { span.SetInt("source_ns", int64(timed.spent)) }()
		st = timed
	}
	return parallel.Batched(ctx, cfg.Workers, cfg.BatchSize,
		func(buf []p2p.Peer) (int, error) { return st.Next(buf) },
		func(i int, peer p2p.Peer) located {
			if wp.Hit(uint64(peer.IP)) {
				panic(fmt.Sprintf("faults: injected worker panic at peer %s", peer.IP))
			}
			return locateOne(peer, primary, secondary, origins, cfg)
		},
		func(batch []p2p.Peer, results []located) {
			agg.fold(batch, results, lookupsC)
		})
}

// timedStream adds the time spent in the wrapped stream's Next to spent.
type timedStream struct {
	st    p2p.PeerStream
	spent time.Duration
}

func (t *timedStream) Next(buf []p2p.Peer) (int, error) {
	start := time.Now()
	n, err := t.st.Next(buf)
	t.spent += time.Since(start)
	return n, err
}

// asAcc is the streaming per-AS accumulator of a capped
// (MaxSamplesPerAS > 0) build: the true user count and the quantile
// sketch the P90 geo error comes from. In exact mode no accumulators
// exist — ASRecord.Samples itself is the complete state.
type asAcc struct {
	users  int
	sketch *stats.QuantileSketch
}

// streamAgg accumulates one locate pass: drop tallies, the dataset's
// AS records, the dedup set, the label intern table, and the
// deterministic memory watermarks. All mutation happens in fold,
// serially, in stream order.
type streamAgg struct {
	cfg     Config
	ases    map[astopo.ASN]*ASRecord
	seen    map[ipnet.Addr]struct{}
	places  core.Places
	accs    map[astopo.ASN]*asAcc // nil in exact mode
	counts  passCounts
	crawled int
	dup     int

	batches, maxBatch     int
	liveSamples, peakLive int
}

func newStreamAgg(cfg Config) *streamAgg {
	g := &streamAgg{
		cfg:    cfg,
		ases:   make(map[astopo.ASN]*ASRecord),
		seen:   make(map[ipnet.Addr]struct{}),
		places: core.Places{},
	}
	if cfg.MaxSamplesPerAS > 0 {
		g.accs = make(map[astopo.ASN]*asAcc)
	}
	return g
}

// fold merges one batch of verdicts, in stream order. It reproduces the
// batch path's aggregation loop exactly — same drop tallies, same
// first-seen-keeps-sample dedup rule, same per-app counting, same label
// interning — plus the origin-lookup counter flush runLocate did per
// block.
func (g *streamAgg) fold(batch []p2p.Peer, results []located, lookupsC *obs.Counter) {
	g.crawled += len(batch)
	g.batches++
	if len(batch) > g.maxBatch {
		g.maxBatch = len(batch)
	}
	var lookups int64
	for i := range results {
		r := &results[i]
		switch r.drop {
		case dropNoCity:
			g.counts.noCity++
		case dropGarbage:
			g.counts.garbage++
		case dropHighGeoErr:
			g.counts.highGeoErr++
		case dropUnmappedIP:
			g.counts.unmapped++
		}
		if r.missA {
			g.counts.missA++
		}
		if r.missB {
			g.counts.missB++
		}
		if r.drop == dropNone || r.drop == dropUnmappedIP {
			lookups++ // an origin lookup was actually performed
		}
		if r.drop != dropNone {
			continue
		}
		peer := batch[i]
		rec := g.ases[r.asn]
		if rec == nil {
			rec = &ASRecord{ASN: r.asn, PeersByApp: make(map[p2p.App]int)}
			g.ases[r.asn] = rec
		}
		if _, dup := g.seen[peer.IP]; dup {
			// Unique-IP semantics (§2: "89.1 million unique IP
			// addresses"): the sample is stored once but still counts in
			// this app's column.
			rec.PeersByApp[peer.App]++
			g.dup++
			continue
		}
		g.seen[peer.IP] = struct{}{}
		rec.PeersByApp[peer.App]++
		s := r.sample
		s.Place = g.places.Intern(r.place)
		g.addSample(rec, r.asn, s)
	}
	lookupsC.Add(lookups)
	if g.liveSamples > g.peakLive {
		g.peakLive = g.liveSamples
	}
}

// addSample stores one kept sample: appended outright in exact mode, or
// through the deterministic Algorithm R reservoir when MaxSamplesPerAS
// caps retention (the sketch still sees every value).
func (g *streamAgg) addSample(rec *ASRecord, asn astopo.ASN, s core.Sample) {
	capN := g.cfg.MaxSamplesPerAS
	if capN <= 0 {
		rec.Samples = append(rec.Samples, s)
		g.liveSamples++
		return
	}
	acc := g.accs[asn]
	if acc == nil {
		acc = &asAcc{sketch: stats.NewQuantileSketch(0.90, capN)}
		g.accs[asn] = acc
	}
	acc.sketch.Add(s.GeoErrKm)
	i := acc.users
	acc.users++
	if i < capN {
		rec.Samples = append(rec.Samples, s)
		g.liveSamples++
		return
	}
	if j := reservoirSlot(asn, i); j < capN {
		rec.Samples[j] = s
	}
}

// finish hands the accumulated state to the dataset and publishes the
// peak gauges.
func (g *streamAgg) finish(ds *Dataset, cfg Config) {
	ds.ASes = g.ases
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = parallel.DefaultBatchSize
	}
	ds.Stream = &StreamStats{
		BatchSize:       batch,
		Batches:         g.batches,
		MaxBatch:        g.maxBatch,
		DedupEntries:    len(g.seen),
		PeakLiveSamples: g.peakLive,
	}
	if cfg.Obs != nil {
		cfg.Obs.Gauge("eyeball_pipeline_stream_peak_live_samples").SetMax(float64(g.peakLive))
		cfg.Obs.Gauge("eyeball_pipeline_stream_dedup_entries").SetMax(float64(len(g.seen)))
		cfg.Obs.Counter("eyeball_pipeline_stream_batches_total").Add(int64(g.batches))
	}
}

// CrawlSource returns the generative peer source Run consumes for (w,
// crawlCfg, crawlSeed) — exposed so callers can export (p2p.WritePeers)
// or re-ingest the exact crawl sequence of a seed.
func CrawlSource(w *astopo.World, crawlCfg p2p.Config, crawlSeed uint64) p2p.PeerSource {
	return p2p.NewCrawlSource(w, crawlCfg, seedSource(crawlSeed))
}
