// Package pipeline implements the paper's four-step methodology (§2):
// sample end users (P2P crawls), map them to locations (two geolocation
// databases with a cross-database error estimate), group them by AS
// (BGP origin tables), and condition the result into the target dataset
// of eligible eyeball ASes.
//
// All filters use the paper's thresholds: peers whose cross-database
// geolocation error exceeds 100 km are dropped, ASes with fewer than
// MinPeers peers are dropped, and ASes whose 90th-percentile geolocation
// error exceeds 80 km are dropped so a fixed 40 km kernel bandwidth is
// valid for every remaining AS (§3.1).
//
// # Failure model
//
// The method is an exercise in surviving dirty measurement data, and
// the pipeline degrades in controlled ways rather than silently
// absorbing arbitrarily bad input:
//
//   - Records with corrupt coordinates (NaN or out of range) are
//     dropped with their own funnel reason ("garbage_coord") instead of
//     flowing into the KDE as poisoned samples.
//   - Optional error budgets (MaxGeoMissFrac, MaxOriginMissFrac) bound
//     how much peer loss at the geolocate and origin stages is
//     tolerable; a blown budget fails the build fast with a typed
//     *BudgetError instead of quietly producing a thin dataset.
//   - When exactly one geolocation database blows the geo budget and
//     SingleDBFallback is set, the build reruns with the surviving
//     database alone and marks the dataset Degraded — cross-database
//     error estimates are gone, which the caller must surface.
//   - Cancellation (SIGINT in the CLIs) is observed at worker-pool
//     block boundaries; a cancelled build returns ctx.Err() and no
//     partial dataset.
//   - A panicking worker (including the faults.WorkerPanic injection)
//     surfaces as a *parallel.PanicError carrying the captured stack.
//
// Deterministic fault injection for all of the above lives in
// internal/faults and is wired through Config.Faults.
package pipeline

import (
	"context"
	"fmt"
	"math"
	"sort"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/core"
	"eyeballas/internal/faults"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geodb"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/obs"
	"eyeballas/internal/p2p"
	"eyeballas/internal/parallel"
	"eyeballas/internal/rng"
	"eyeballas/internal/stats"
	"eyeballas/internal/trace"
)

// seedSource derives the crawl's RNG stream from a seed.
func seedSource(seed uint64) *rng.Source { return rng.New(seed).Split("p2p") }

// MaxGeoErrKm drops individual peers with larger cross-database error;
// the paper uses 100 km ("the diameter of a typical metropolitan area",
// §2).
const MaxGeoErrKm float64 = 100

// MaxP90GeoErrKm drops whole ASes whose 90th-percentile geo error
// exceeds it; the paper uses 80 km (§3.1).
const MaxP90GeoErrKm float64 = 80

// Config holds the conditioning settings.
type Config struct {
	// MinPeers drops ASes with fewer usable peers. The paper uses 1000
	// at 89M-crawl scale; the default here is scaled to the synthetic
	// crawl size.
	MinPeers int
	// Workers bounds the goroutines used by the parallel stages (per-peer
	// geolocation, per-AS conditioning, per-vantage RIB construction);
	// 0 means GOMAXPROCS, 1 forces serial execution. Output is
	// byte-identical for every setting: results are index-addressed and
	// aggregation always applies them in a fixed order.
	Workers int
	// Obs receives pipeline metrics: the stage funnel, the per-AS P90
	// geo-error histogram, and the shard-aggregated origin-lookup
	// counter (stage spans come from the trace in the context). nil
	// disables exposition; the funnel itself is always built
	// (Dataset.Drops and the CLI summary are views over it), and
	// datasets are bit-identical with or without a registry.
	Obs *obs.Registry

	// MaxGeoMissFrac is the geolocate-stage error budget: the maximum
	// tolerable fraction of crawled peers lost to missing or corrupt
	// geolocation records (funnel reasons no_city + garbage_coord).
	// Exceeding it fails the build with a *BudgetError — unless
	// SingleDBFallback applies (see below). 0 disables the budget.
	MaxGeoMissFrac float64
	// MaxOriginMissFrac is the origin-stage error budget: the maximum
	// tolerable fraction of geolocated peers that match no BGP prefix
	// (funnel reason unmapped_ip). Exceeding it fails the build with a
	// *BudgetError. 0 disables the budget.
	MaxOriginMissFrac float64
	// SingleDB builds from the primary database alone: no secondary
	// lookups, no cross-database error estimates (GeoErrKm is 0 for
	// every sample and the error filters pass trivially). The dataset
	// is marked Degraded.
	SingleDB bool
	// SingleDBFallback permits a dual-database build whose geo budget
	// is blown by exactly one database to rerun with the surviving
	// database alone instead of failing. The result is marked Degraded
	// with the reason recorded. Requires MaxGeoMissFrac > 0 to ever
	// trigger.
	SingleDBFallback bool
	// Faults is the deterministic fault-injection plan (nil = none).
	// Build wraps the databases and the origin resolver with the
	// plan's injectors and arms the worker-panic injection; Run
	// additionally passes the plan to the crawl. A nil plan — or one
	// whose rates are all zero — yields a bit-identical dataset to no
	// plan at all.
	Faults *faults.Plan

	// BatchSize is the number of peers per streaming ingestion batch
	// (see BuildStream); <= 0 selects parallel.DefaultBatchSize. The
	// batch size bounds transient memory only — datasets are
	// bit-identical for every setting, exactly as for Workers.
	BatchSize int
	// MaxSamplesPerAS, when positive, caps per-AS sample retention
	// during streaming ingestion: each AS keeps a deterministic
	// reservoir of at most this many samples, the true user count is
	// carried separately (ASRecord.Users), and the AS's P90 geo error
	// comes from a streaming quantile sketch (exact below the cap,
	// P²-approximate above it — see stats.QuantileSketch). 0 keeps
	// every sample: exact statistics, bit-identical to the batch path,
	// at O(kept users) memory.
	MaxSamplesPerAS int
}

// DefaultConfig returns the peer floor for the default synthetic scale
// (~paper/75 peers ⇒ proportionally scaled floor).
func DefaultConfig() Config { return Config{MinPeers: 100} }

// PaperConfig returns the paper's literal peer floor (for full-scale
// runs).
func PaperConfig() Config { return Config{MinPeers: 1000} }

func (c Config) validate() error {
	if c.MinPeers < 1 {
		return fmt.Errorf("pipeline: MinPeers must be >= 1")
	}
	for _, b := range []struct {
		name string
		v    float64
	}{{"MaxGeoMissFrac", c.MaxGeoMissFrac}, {"MaxOriginMissFrac", c.MaxOriginMissFrac}} {
		if b.v < 0 || b.v > 1 || math.IsNaN(b.v) {
			return fmt.Errorf("pipeline: %s %v outside [0,1]", b.name, b.v)
		}
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("pipeline: BatchSize must be >= 0 (0 = default)")
	}
	if c.MaxSamplesPerAS < 0 {
		return fmt.Errorf("pipeline: MaxSamplesPerAS must be >= 0 (0 = keep all)")
	}
	return nil
}

// BudgetError reports a blown per-stage error budget: the build
// observed a failure fraction beyond what the caller declared
// tolerable, and failed fast instead of conditioning a thin dataset.
type BudgetError struct {
	Stage  string  // "geolocate" or "origin"
	Reason string  // human-readable diagnosis
	Frac   float64 // observed failure fraction
	Budget float64 // the configured cap it exceeded
}

// Error renders the budget violation on one line.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("pipeline: %s error budget exceeded: %s (%.4f > %.4f)",
		e.Stage, e.Reason, e.Frac, e.Budget)
}

// ASRecord is one eligible eyeball AS in the target dataset.
type ASRecord struct {
	ASN     astopo.ASN
	Samples []core.Sample
	// Users is the number of distinct usable users observed in this AS.
	// It equals len(Samples) unless Config.MaxSamplesPerAS capped the
	// retained samples, in which case Samples is a uniform reservoir
	// and Users carries the true count.
	Users int
	// PeersByApp counts usable peer observations per application
	// (Table 1's "#Peers by source"); a user seen by two crawlers counts
	// once in Samples but in both app columns.
	PeersByApp map[p2p.App]int
	// Class is the §2 geographic classification from database labels.
	Class core.Classification
	// Region is the dominant continental region of the AS's samples.
	Region gazetteer.Region
	// P90GeoErrKm is the 90th percentile of per-sample geo error.
	P90GeoErrKm float64
}

// Drops accounts for every discarded observation or AS.
type Drops struct {
	NoCityRecord int // either database lacked a city-level record
	GarbageCoord int // a database answered corrupt coordinates (NaN / out of range)
	HighGeoErr   int // cross-database error above MaxGeoErrKm
	UnmappedIP   int // no origin AS in the BGP tables
	DupIP        int // same IP already seen (kept once in samples)
	SmallAS      int // ASes below MinPeers
	HighErrAS    int // ASes above MaxP90GeoErrKm
}

// Dataset is the conditioned target dataset.
type Dataset struct {
	ASes  map[astopo.ASN]*ASRecord
	Order []astopo.ASN // ascending ASN
	Drops Drops
	// TotalPeers is the number of usable samples across all eligible
	// ASes (the paper's 48M).
	TotalPeers int
	// CrawledPeers is the crawl size the funnel started from (the
	// paper's 89.1M).
	CrawledPeers int
	// Funnel is the stage-by-stage accounting of this build:
	// geolocate → origin → dedup → condition, with per-reason drop
	// counts. It is always populated (even with Config.Obs == nil);
	// Drops is a fixed-shape view over the same counts, and
	// Funnel.Check() proves conservation: every crawled peer is either
	// in TotalPeers, dropped at a peer-level stage, or inside a
	// dropped AS.
	Funnel *obs.Funnel
	// Degraded is true when the dataset was built without the
	// cross-database error estimate — either SingleDB was requested or
	// the single-DB fallback fired. Per-sample GeoErrKm is then 0 and
	// the geo-error filters passed trivially; downstream consumers
	// must treat error-sensitive conclusions accordingly.
	Degraded bool
	// DegradedReason says why (empty when Degraded is false).
	DegradedReason string
	// Stream is the streaming engine's deterministic memory accounting
	// (nil for the frozen batch reference path). Its counts are pure
	// functions of the input stream and BatchSize — identical for every
	// worker count — which is what lets tests pin memory behaviour
	// without GC flakiness.
	Stream *StreamStats
}

// StreamStats reports how a streaming build consumed its input.
type StreamStats struct {
	// BatchSize is the resolved ingestion batch size.
	BatchSize int
	// Batches is the number of batches folded.
	Batches int
	// MaxBatch is the largest batch actually delivered by the source.
	MaxBatch int
	// DedupEntries is the number of distinct kept-peer IPs the dedup
	// set tracked (the O(kept users) term of peak memory).
	DedupEntries int
	// PeakLiveSamples is the high-watermark of samples held across all
	// per-AS accumulators — equal to kept unique users when
	// MaxSamplesPerAS is 0, and bounded by ASes·cap when it is set.
	PeakLiveSamples int
}

// AS returns the record for an AS, or nil.
func (d *Dataset) AS(n astopo.ASN) *ASRecord { return d.ASes[n] }

// Records returns all records in ascending-ASN order.
func (d *Dataset) Records() []*ASRecord {
	out := make([]*ASRecord, len(d.Order))
	for i, n := range d.Order {
		out[i] = d.ASes[n]
	}
	return out
}

// located is the per-peer result of the (parallel) geolocation stage.
// Its sample has no Place yet: the serial aggregation interns place into
// the build's table, so workers never share a map.
type located struct {
	sample core.Sample
	place  core.Place
	asn    astopo.ASN
	drop   dropKind
	// missA/missB record which database lacked a city-level record for
	// this peer (dual-database passes only) — the per-database blame
	// the single-DB fallback decision needs.
	missA, missB bool
}

type dropKind int8

const (
	dropNone dropKind = iota
	dropNoCity
	dropGarbage
	dropHighGeoErr
	dropUnmappedIP
)

// passCounts tallies one locate pass.
type passCounts struct {
	noCity, garbage, highGeoErr, unmapped int
	missA, missB                          int
}

func tally(results []located) passCounts {
	var c passCounts
	for i := range results {
		switch results[i].drop {
		case dropNoCity:
			c.noCity++
		case dropGarbage:
			c.garbage++
		case dropHighGeoErr:
			c.highGeoErr++
		case dropUnmappedIP:
			c.unmapped++
		}
		if results[i].missA {
			c.missA++
		}
		if results[i].missB {
			c.missB++
		}
	}
	return c
}

// Build runs steps 2–4 of the methodology over a finished crawl.
// Geolocation and origin lookups are pure per-peer functions, so they run
// on all CPUs; aggregation preserves crawl order, keeping the result
// byte-identical to a sequential run.
//
// Build is a thin wrapper over BuildStream on an in-memory stream of the
// crawl's peers, kept for the benchmark's layer-by-layer build and for
// tests; the differential harness in stream_diff_test.go proves it
// bit-identical to the frozen batch reference (buildBatch) for every
// batch size, worker count, and fault plan.
//
// origins is any bgp.Resolver; the whole-run entry points pass a
// *bgp.OriginTable, whose lookups are served from the compiled flat LPM
// form. The interface keeps the trie reference path substitutable for
// differential testing. Lookups cannot fail: an address no prefix
// covers is an "unmapped_ip" drop, not an error.
//
// ctx cancels the build at worker-pool block boundaries (nil means
// context.Background()). On any failure — cancellation, blown budget,
// worker panic — the returned dataset is nil.
func Build(ctx context.Context, crawl *p2p.Crawl, dbA, dbB *geodb.DB, origins bgp.Resolver, cfg Config) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var peers []p2p.Peer
	if crawl != nil {
		peers = crawl.Peers
	}
	return BuildStream(ctx, p2p.SlicePeers(peers), dbA, dbB, origins, cfg)
}

// buildBatch is the pre-streaming Build implementation, kept verbatim
// as the frozen reference for the differential test harness: it
// materializes the full []located verdict slice (O(crawled peers)
// memory) and aggregates afterwards. Production callers go through
// Build/BuildStream; only tests should call this.
func buildBatch(ctx context.Context, crawl *p2p.Crawl, dbA, dbB *geodb.DB, origins bgp.Resolver, cfg Config) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	// Fault wiring: wrap the databases and the resolver with the plan's
	// injectors, and arm the worker-panic injection. All of these are
	// identity operations under a nil (or all-zero) plan.
	dbA = dbA.WithFaults(cfg.Faults, faults.GeoMissA)
	if dbB != nil {
		dbB = dbB.WithFaults(cfg.Faults, faults.GeoMissB)
	}
	origins = bgp.WithFaults(origins, cfg.Faults)
	wp := cfg.Faults.Injector(faults.WorkerPanic)

	// The funnel is built unconditionally: Dataset.Drops and the CLI
	// summary are views over it. Registering it on a nil registry is a
	// no-op.
	funnel := obs.NewFunnel("pipeline")
	cfg.Obs.RegisterFunnel(funnel)
	stGeo := funnel.Stage("geolocate").DeclareReasons("no_city", "garbage_coord", "high_geo_err")
	stOrigin := funnel.Stage("origin").DeclareReasons("unmapped_ip")
	stDedup := funnel.Stage("dedup").DeclareReasons("dup_ip")
	stCond := funnel.Stage("condition").DeclareReasons("small_as", "high_err_as")

	ds := &Dataset{
		ASes:         make(map[astopo.ASN]*ASRecord),
		CrawledPeers: len(crawl.Peers),
		Funnel:       funnel,
	}

	// Shard-aggregated lookup counter: each work block accumulates a
	// plain local count and flushes one atomic add, so the ~6 ns
	// compiled OriginOf stays instruction-identical (see
	// bgp.NewOriginTableObs). Nil when metrics are disabled — Add on a
	// nil counter is a branch-only no-op.
	lookupsC := cfg.Obs.Counter("eyeball_bgp_origin_lookups_total")

	secondary := dbB
	if cfg.SingleDB {
		secondary = nil
		ds.Degraded = true
		ds.DegradedReason = "single-db mode requested (no cross-database error estimates)"
	}
	results, err := runLocate(ctx, crawl, dbA, secondary, origins, cfg, wp, lookupsC)
	if err != nil {
		return nil, err
	}
	counts := tally(results)
	n := len(crawl.Peers)

	// Geolocate-stage error budget. The failure fraction is the share
	// of crawled peers lost to missing or corrupt records — high_geo_err
	// drops are not counted, because large cross-database disagreement
	// is dirty data the method is designed for, not an ingestion
	// failure. When exactly one database is individually over budget
	// and the fallback is enabled, rerun with the survivor.
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
			survivor, survivorMiss := dbA, fracA
			lostDB, lostFrac := dbB, fracB
			if blameA {
				survivor, survivorMiss = dbB, fracB
				lostDB, lostFrac = dbA, fracA
			}
			_ = survivorMiss
			results, err = runLocate(ctx, crawl, survivor, nil, origins, cfg, wp, lookupsC)
			if err != nil {
				return nil, err
			}
			counts = tally(results)
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

	seenIP := make(map[ipnet.Addr]astopo.ASN, len(crawl.Peers))
	places := core.Places{}
	var dup int
	for i, peer := range crawl.Peers {
		r := results[i]
		if r.drop != dropNone {
			continue
		}
		rec := ds.ASes[r.asn]
		if rec == nil {
			rec = &ASRecord{ASN: r.asn, PeersByApp: make(map[p2p.App]int)}
			ds.ASes[r.asn] = rec
		}
		if _, isDup := seenIP[peer.IP]; isDup {
			// Unique-IP semantics (§2: "89.1 million unique IP
			// addresses"): the sample is stored once but still counts in
			// this app's column.
			rec.PeersByApp[peer.App]++
			dup++
			continue
		}
		seenIP[peer.IP] = r.asn
		rec.PeersByApp[peer.App]++
		s := r.sample
		s.Place = places.Intern(r.place)
		rec.Samples = append(rec.Samples, s)
	}

	// Flush the peer-level funnel stages once per reason (the loops
	// above used plain locals — no per-peer atomics) and derive the
	// fixed-shape Drops view from the same counts.
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
	stDedup.Drop("dup_ip", dup)
	stDedup.Out(originOut - dup)
	ds.Drops.NoCityRecord = counts.noCity
	ds.Drops.GarbageCoord = counts.garbage
	ds.Drops.HighGeoErr = counts.highGeoErr
	ds.Drops.UnmappedIP = counts.unmapped
	ds.Drops.DupIP = dup

	return condition(ctx, ds, cfg, stCond, nil)
}

// runLocate fans the pure per-peer stage out over the worker pool.
// secondary == nil selects the single-database path (no cross-database
// error estimate). wp, when non-nil, is the armed worker-panic
// injection: it panics at hit peers, which the pool converts into a
// *parallel.PanicError with the captured stack.
func runLocate(ctx context.Context, crawl *p2p.Crawl, primary, secondary *geodb.DB, origins bgp.Resolver, cfg Config, wp *faults.Injector, lookupsC *obs.Counter) ([]located, error) {
	results := make([]located, len(crawl.Peers))
	err := parallel.Blocks(ctx, cfg.Workers, len(crawl.Peers), 0, func(lo, hi int) error {
		var lookups int64
		for i := lo; i < hi; i++ {
			if wp.Hit(uint64(crawl.Peers[i].IP)) {
				panic(fmt.Sprintf("faults: injected worker panic at peer %s", crawl.Peers[i].IP))
			}
			r := locateOne(crawl.Peers[i], primary, secondary, origins, cfg)
			if r.drop == dropNone || r.drop == dropUnmappedIP {
				lookups++ // an origin lookup was actually performed
			}
			results[i] = r
		}
		lookupsC.Add(lookups)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// badCoord reports whether a coordinate pair is corrupt: NaN or outside
// the valid latitude/longitude ranges. Such records come from broken
// database rows (see faults.GeoGarbage / faults.GeoNaN) and must never
// reach the KDE — a single NaN sample poisons the whole surface.
func badCoord(lat, lon float64) bool {
	return math.IsNaN(lat) || math.IsNaN(lon) || math.Abs(lat) > 90 || math.Abs(lon) > 180
}

// locateOne runs the pure per-peer stage: geolocation, error
// estimation, the corruption and 100 km cuts, and origin-AS lookup.
// secondary == nil is the single-database mode: no cross-database error
// estimate exists, GeoErrKm is 0, and only the primary's record gates
// the peer.
func locateOne(peer p2p.Peer, primary, secondary *geodb.DB, origins bgp.Resolver, cfg Config) located {
	// Both databases snap the peer to the same nearest zips: one site
	// runs that search once for the pair.
	site := geodb.Site{Loc: peer.TrueLoc}
	recA := primary.LocateAt(peer.IP, &site)
	var geoErr float64
	var l located
	if secondary == nil {
		if !recA.HasCity {
			return located{drop: dropNoCity, missA: true}
		}
		if badCoord(recA.Loc.Lat, recA.Loc.Lon) {
			return located{drop: dropGarbage}
		}
	} else {
		recB := secondary.LocateAt(peer.IP, &site)
		l.missA = !recA.HasCity
		l.missB = !recB.HasCity
		var ok bool
		geoErr, ok = geodb.CrossError(recA, recB)
		if !ok {
			l.drop = dropNoCity
			return l
		}
		// Corrupt coordinates in either record: the cross-distance is
		// meaningless (possibly NaN, which would sail past any >
		// threshold), so these drop under their own reason before the
		// error cut.
		if badCoord(recA.Loc.Lat, recA.Loc.Lon) || badCoord(recB.Loc.Lat, recB.Loc.Lon) || math.IsNaN(geoErr) {
			l.drop = dropGarbage
			return l
		}
		if geoErr > MaxGeoErrKm {
			l.drop = dropHighGeoErr
			return l
		}
	}
	asn, ok := origins.OriginOf(peer.IP)
	if !ok {
		l.drop = dropUnmappedIP
		return l
	}
	l.asn = asn
	l.sample = core.Sample{Loc: recA.Loc, GeoErrKm: geoErr}
	l.place = core.Place{City: recA.City, State: recA.State, Country: recA.Country, Region: recA.Region}
	return l
}

// condition applies the AS-level filters and classification. The per-AS
// statistics (geo-error percentile, level classification, dominant
// region) are pure functions of each record, so they fan out over the
// worker pool into index-addressed verdicts; the filters and counters are
// then applied serially in ascending-ASN order, making drop counts,
// Order, and TotalPeers identical for every worker count.
//
// accs, when non-nil, carries the streaming per-AS accumulators of a
// MaxSamplesPerAS build: the true user count (Samples is then only a
// reservoir) and the quantile sketch the P90 comes from. nil means
// exact mode — every sample retained, statistics computed from them.
func condition(ctx context.Context, ds *Dataset, cfg Config, stCond *obs.Stage, accs map[astopo.ASN]*asAcc) (*Dataset, error) {
	asns := make([]astopo.ASN, 0, len(ds.ASes))
	for asn := range ds.ASes {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })

	type verdict struct {
		small   bool
		highErr bool
		users   int
		p90     float64
		class   core.Classification
		region  gazetteer.Region
	}
	verdicts := make([]verdict, len(asns))
	err := parallel.ForEach(ctx, cfg.Workers, asns, func(i int, asn astopo.ASN) error {
		rec := ds.ASes[asn]
		users := len(rec.Samples)
		var acc *asAcc
		if accs != nil {
			if acc = accs[asn]; acc != nil {
				users = acc.users
			}
		}
		verdicts[i].users = users
		if users < cfg.MinPeers {
			verdicts[i].small = true
			return nil
		}
		var p90 float64
		if acc != nil {
			// Capped mode: the sketch saw every sample (exact below its
			// threshold, P² above); Samples is only a reservoir.
			p90 = acc.sketch.Quantile()
		} else {
			errs := make([]float64, len(rec.Samples))
			for j, s := range rec.Samples {
				errs[j] = s.GeoErrKm
			}
			p90 = stats.Percentile(errs, 90)
		}
		if p90 > MaxP90GeoErrKm {
			verdicts[i].highErr = true
			verdicts[i].p90 = p90
			return nil
		}
		verdicts[i].p90 = p90
		verdicts[i].class = core.ClassifyLevel(rec.Samples)
		verdicts[i].region = core.DominantRegion(rec.Samples)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Per-AS P90 geo-error histogram (observed for every AS whose P90
	// was computed, i.e. non-small ones) and AS-level drop counters.
	// All handles are nil (branch-only no-ops) when metrics are
	// disabled.
	p90Hist := cfg.Obs.Histogram("eyeball_pipeline_as_p90_geoerr_km", obs.KmErrorBuckets())
	smallASC := cfg.Obs.Counter("eyeball_pipeline_as_dropped_total", "reason", "small_as")
	highErrASC := cfg.Obs.Counter("eyeball_pipeline_as_dropped_total", "reason", "high_err_as")

	// Peer accounting uses the true user counts (== len(Samples) in
	// exact mode), so funnel conservation holds even when Samples is a
	// capped reservoir.
	var condIn, smallPeers, highErrPeers int
	for i, asn := range asns {
		v := verdicts[i]
		rec := ds.ASes[asn]
		condIn += v.users
		switch {
		case v.small:
			delete(ds.ASes, asn)
			ds.Drops.SmallAS++
			smallPeers += v.users
		case v.highErr:
			p90Hist.Observe(v.p90)
			delete(ds.ASes, asn)
			ds.Drops.HighErrAS++
			highErrPeers += v.users
		default:
			p90Hist.Observe(v.p90)
			rec.Users = v.users
			rec.P90GeoErrKm = v.p90
			rec.Class = v.class
			rec.Region = v.region
			ds.TotalPeers += v.users
			ds.Order = append(ds.Order, asn)
		}
	}
	// Funnel accounting: the condition stage counts peers, not ASes —
	// the peers inside a dropped AS are the stage's drops, so the
	// funnel's conservation invariant closes over the whole crawl.
	stCond.In(condIn)
	stCond.Drop("small_as", smallPeers)
	stCond.Drop("high_err_as", highErrPeers)
	stCond.Out(ds.TotalPeers)
	smallASC.Add(int64(ds.Drops.SmallAS))
	highErrASC.Add(int64(ds.Drops.HighErrAS))
	if cfg.Obs != nil {
		cfg.Obs.Gauge("eyeball_pipeline_eligible_ases").Set(float64(len(ds.Order)))
	}
	return ds, nil
}

// Run executes the entire methodology from a world: it builds the BGP
// origin tables from three vantage tier-1s, then streams the generated
// crawl unit by unit into BuildStream and conditions the dataset. No
// crawl is ever materialized, so peak memory is bounded by the kept
// users (plus cfg.BatchSize transient state), not the crawl size. Run
// also returns the compiled origin table the build resolved peers
// against, so a serving artifact carries the exact LPM the dataset was
// conditioned with instead of a re-derived one.
//
// ctx cancels the run between crawl units, at RIB-construction
// boundaries, and at the build's batch boundaries (nil means
// context.Background()). cfg.Faults, when set, is injected into the
// crawl as well as the build, so one plan drives every ingestion
// boundary.
func Run(ctx context.Context, w *astopo.World, crawlCfg p2p.Config, cfg Config, crawlSeed uint64) (*Dataset, *bgp.OriginTable, error) {
	return runFrom(ctx, w, CrawlSource(w, crawlConfig(crawlCfg, cfg), crawlSeed), cfg)
}

// RunExport is Run over a materialized crawl: it collects the whole
// crawl first, at O(crawled peers) memory, and returns it alongside the
// dataset and origin table. No production path calls it. It is the
// reference the benchmark's layer-by-layer build (p2p.Run, then Build)
// is pinned against, and the one tests compare Run with.
func RunExport(ctx context.Context, w *astopo.World, crawlCfg p2p.Config, cfg Config, crawlSeed uint64) (*Dataset, *p2p.Crawl, *bgp.OriginTable, error) {
	crawl, err := p2p.Run(ctx, w, crawlConfig(crawlCfg, cfg), seedSource(crawlSeed))
	if err != nil {
		return nil, nil, nil, err
	}
	ds, origins, err := runFrom(ctx, w, p2p.SlicePeers(crawl.Peers), cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return ds, crawl, origins, nil
}

// crawlConfig defaults the crawl's registry and fault plan to the
// build's.
func crawlConfig(crawlCfg p2p.Config, cfg Config) p2p.Config {
	if crawlCfg.Obs == nil {
		crawlCfg.Obs = cfg.Obs
	}
	if crawlCfg.Faults == nil {
		crawlCfg.Faults = cfg.Faults
	}
	return crawlCfg
}

// runFrom is Run's body over any replayable peer source: the origin
// tables, then BuildStream. It opens "pipeline.run" under the trace ctx
// carries (none when it carries none) and nests both stages under it.
func runFrom(ctx context.Context, w *astopo.World, src p2p.PeerSource, cfg Config) (*Dataset, *bgp.OriginTable, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	span := trace.FromContext(ctx).Child("pipeline.run")
	defer span.End()
	ctx = trace.NewContext(ctx, span)
	origins, err := originTable(ctx, w, cfg)
	if err != nil {
		return nil, nil, err
	}
	ds, err := BuildStream(ctx, src, geodb.NewGeoCity(w), geodb.NewIPLoc(w), origins, cfg)
	if err != nil {
		return nil, nil, err
	}
	return ds, origins, nil
}

// originTable computes policy routing and builds the origin table from
// the world's three tier-1 vantage RIBs under a "bgp.origin_table" span
// with "bgp.routing" and "bgp.ribs" children. Per-vantage RIB
// construction is independent; fan it out, keeping the vantage order
// (and thus the origin table) fixed.
func originTable(ctx context.Context, w *astopo.World, cfg Config) (*bgp.OriginTable, error) {
	span := trace.FromContext(ctx).Child("bgp.origin_table")
	defer span.End()
	routingSpan := span.Child("bgp.routing")
	routing := bgp.ComputeRouting(w)
	routingSpan.End()
	var vantages []astopo.ASN
	for _, a := range w.ASes() {
		if a.Kind != astopo.KindTier1 {
			continue
		}
		vantages = append(vantages, a.ASN)
		if len(vantages) == 3 {
			break
		}
	}
	if len(vantages) == 0 {
		return nil, fmt.Errorf("pipeline: world has no tier-1 vantage points")
	}
	ribs := make([]*bgp.RIB, len(vantages))
	ribSpan := span.Child("bgp.ribs")
	err := parallel.ForEach(ctx, cfg.Workers, vantages, func(i int, vantage astopo.ASN) error {
		rib, err := bgp.BuildRIBObs(w, routing, vantage, cfg.Obs)
		if err != nil {
			return err
		}
		ribs[i] = rib
		return nil
	})
	ribSpan.End()
	if err != nil {
		return nil, err
	}
	return bgp.NewOriginTableObs(cfg.Obs, ribs...), nil
}
