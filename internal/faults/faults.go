// Package faults is the reproduction's deterministic fault-injection
// layer. The paper's method is an exercise in surviving dirty
// measurement data — geolocation databases with missing or wildly wrong
// records, incomplete BGP tables, biased partial crawls — and this
// package lets tests and experiments inject exactly those structural
// failures, reproducibly, at every ingestion boundary:
//
//   - crawl-loss / crawl-dup    — p2p crawl responses lost or duplicated
//   - geo-miss[-a|-b]           — a geolocation DB has no record for an IP
//   - geo-garbage               — a DB answers out-of-range coordinates
//   - geo-nan                   — a DB answers a NaN-zip record
//   - origin-miss               — a BGP origin lookup finds no prefix
//   - rib-truncate / rib-corrupt — RIB dump rows cut off or mangled
//   - worker-panic              — a worker goroutine panics mid-block
//   - snap-corrupt              — dataset snapshot bytes flipped on disk
//
// and, since PR 9, at the serving boundary (injected by the chaos
// middleware in internal/serve, keyed by request sequence number):
//
//   - serve-slow                — a request is served after an injected delay
//   - serve-panic               — the handler panics mid-request
//   - serve-500                 — the handler answers an injected 500
//   - serve-drop                — the connection is severed with no response
//   - reload-fail               — a hot-swapped snapshot fails post-swap
//     validation, forcing the rollback path
//
// Determinism discipline: every injection decision is a pure function of
// (plan seed, fault point, site key) — the same splitmix64 split scheme
// internal/rng uses for Source.Split — never of evaluation order, worker
// count, or wall clock. Two runs with the same plan inject the same
// faults at the same records; a plan whose rates are all zero is
// bit-identical to no plan at all (Injector returns nil, and every
// Injector method is a nil-safe no-op).
//
// Site keys must be derived from record identity (an IP address, a
// stream position, a crawl unit), never from where the record happens
// to sit in a processing batch. The streaming ingestion path re-batches
// the same peer sequence at arbitrary sizes; identity-keyed sites are
// what keep a plan's injections bit-identical across every BatchSize
// and Workers setting — and identical between the streaming and
// materialized Build paths.
//
// The package imports only the standard library and internal/rng,
// itself stdlib-only, so every ingestion package — p2p, geodb, bgp,
// pipeline, parallel consumers — can import it without cycles.
package faults

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"eyeballas/internal/rng"
)

// Point identifies one injectable fault point.
type Point string

// The injectable fault points, one per ingestion boundary.
const (
	// CrawlLoss drops a crawl response: the peer is observed by the
	// crawler but the response is lost before it is recorded.
	CrawlLoss Point = "crawl-loss"
	// CrawlDup duplicates a crawl response: the same peer is recorded
	// twice (the pipeline's unique-IP dedup must absorb it).
	CrawlDup Point = "crawl-dup"
	// GeoMiss makes both geolocation databases miss (no city-level
	// record) for the hit IPs. Each database still decides per
	// (database, IP), so the two databases miss on independent IP sets.
	GeoMiss Point = "geo-miss"
	// GeoMissA injects misses into the primary database only.
	GeoMissA Point = "geo-miss-a"
	// GeoMissB injects misses into the secondary database only — the
	// knob that drives the single-DB fallback scenario.
	GeoMissB Point = "geo-miss-b"
	// GeoGarbage makes a database answer out-of-range coordinates
	// (|lat| > 90, |lon| > 180) — the "wildly wrong entry" failure mode
	// real databases exhibit.
	GeoGarbage Point = "geo-garbage"
	// GeoNaN makes a database answer a record whose coordinates are NaN
	// (a corrupt zip-centroid row).
	GeoNaN Point = "geo-nan"
	// OriginMiss makes a BGP origin lookup miss: the IP matches no
	// prefix (an incomplete RIB).
	OriginMiss Point = "origin-miss"
	// RIBTruncate cuts a RIB dump off at an injected row (the rest of
	// the file is lost).
	RIBTruncate Point = "rib-truncate"
	// RIBCorrupt mangles individual RIB dump rows.
	RIBCorrupt Point = "rib-corrupt"
	// WorkerPanic panics a worker goroutine mid-block; the parallel
	// pool must recover it into an error instead of crashing the
	// process.
	WorkerPanic Point = "worker-panic"
	// SnapCorrupt flips bits in a written dataset snapshot (a bad disk,
	// a torn download); the snapshot reader must reject the artifact
	// with a typed checksum error instead of serving poisoned data.
	SnapCorrupt Point = "snap-corrupt"
	// ServeSlow delays a served request by an injected site-derived
	// duration — the latency fault that drives the adaptive limiter and
	// the client's deadline handling.
	ServeSlow Point = "serve-slow"
	// ServePanic panics the request handler mid-request; the serve
	// layer's recovery middleware must turn it into a 500 and keep the
	// process alive.
	ServePanic Point = "serve-panic"
	// Serve500 makes the handler answer an injected 500 instead of
	// running — the "backend dependency failed" fault clients must
	// retry through.
	Serve500 Point = "serve-500"
	// ServeDrop severs the connection without writing a response — the
	// network fault clients observe as an unexpected EOF.
	ServeDrop Point = "serve-drop"
	// ReloadFail makes a hot-swapped snapshot fail post-swap validation,
	// exercising the serve layer's last-known-good rollback.
	ReloadFail Point = "reload-fail"
)

// Points lists every fault point in canonical order (the order
// Plan.String renders and documentation lists them in).
var Points = []Point{
	CrawlLoss, CrawlDup,
	GeoMiss, GeoMissA, GeoMissB, GeoGarbage, GeoNaN,
	OriginMiss,
	RIBTruncate, RIBCorrupt,
	WorkerPanic,
	SnapCorrupt,
	ServeSlow, ServePanic, Serve500, ServeDrop,
	ReloadFail,
}

// Valid reports whether p names a known fault point.
func (p Point) Valid() bool {
	for _, q := range Points {
		if p == q {
			return true
		}
	}
	return false
}

// u01 maps 64 random bits to a uniform float64 in [0, 1).
func u01(v uint64) float64 { return float64(v>>11) / (1 << 53) }

// Plan is a set of fault points with injection rates, rooted at one
// seed. The zero rate for a point means the point is disabled; a nil
// *Plan disables everything (all methods are nil-safe).
type Plan struct {
	seed  uint64
	rates map[Point]float64
}

// NewPlan creates an empty plan rooted at seed.
func NewPlan(seed uint64) *Plan {
	return &Plan{seed: seed, rates: make(map[Point]float64)}
}

// Seed returns the plan's seed (0 for nil).
func (p *Plan) Seed() uint64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// Set sets the injection rate for a fault point. Rates are
// probabilities in [0, 1].
func (p *Plan) Set(pt Point, rate float64) error {
	if !pt.Valid() {
		return fmt.Errorf("faults: unknown fault point %q (known: %s)", pt, knownList())
	}
	if !(rate >= 0 && rate <= 1) { // also rejects NaN
		return fmt.Errorf("faults: rate %v for %s outside [0,1]", rate, pt)
	}
	p.rates[pt] = rate
	return nil
}

// Rate returns the configured rate for a point (0 for nil plans and
// unset points).
func (p *Plan) Rate(pt Point) float64 {
	if p == nil {
		return 0
	}
	return p.rates[pt]
}

// Enabled reports whether any fault point has a positive rate.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	for _, r := range p.rates {
		if r > 0 {
			return true
		}
	}
	return false
}

// Injector derives the injector for one fault point. It returns nil —
// the universally no-op injector — when the plan is nil or the point's
// rate is zero, so a disabled fault point costs one nil check at the
// call site and nothing else.
//
// The injector's stream is derived with the same Split discipline as
// rng.Source: seed' = rng.Mix(planSeed ^ fnv64a(point)), so each point's
// decisions are independent of every other point's.
func (p *Plan) Injector(pt Point) *Injector {
	if p == nil {
		return nil
	}
	rate := p.rates[pt]
	if rate <= 0 {
		return nil
	}
	h := fnv.New64a()
	h.Write([]byte(pt))
	return &Injector{seed: rng.Mix(p.seed ^ h.Sum64()), rate: rate}
}

// String renders the plan as a canonical spec ("geo-miss=0.05,..."),
// listing points in Points order and eliding zero rates. ParseSpec
// round-trips it. Nil and all-zero plans render as "".
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	for _, pt := range Points {
		if r := p.rates[pt]; r > 0 {
			parts = append(parts, string(pt)+"="+strconv.FormatFloat(r, 'g', -1, 64))
		}
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a comma-separated point=rate spec, e.g.
//
//	geo-miss=0.05,origin-miss=0.01
//
// into a plan rooted at seed. Whitespace around entries is ignored; a
// point given twice keeps the last rate. An empty spec returns a nil
// plan (injection fully disabled).
func ParseSpec(spec string, seed uint64) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := NewPlan(seed)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		eq := strings.IndexByte(entry, '=')
		if eq < 0 {
			return nil, fmt.Errorf("faults: bad spec entry %q (want point=rate)", entry)
		}
		pt := Point(strings.TrimSpace(entry[:eq]))
		rateStr := strings.TrimSpace(entry[eq+1:])
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil {
			return nil, fmt.Errorf("faults: bad rate %q for %s", rateStr, pt)
		}
		if err := p.Set(pt, rate); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func knownList() string {
	names := make([]string, len(Points))
	for i, p := range Points {
		names[i] = string(p)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// Injector makes per-site injection decisions for one fault point. A
// site is whatever stable key identifies the record at the boundary —
// an IP address, a row index, a (key, salt) pair — so the decision is
// identical no matter when, where, or on which worker the record is
// processed. All methods are no-ops on a nil receiver.
type Injector struct {
	seed uint64
	rate float64
}

// Rate returns the injector's rate (0 for nil).
func (in *Injector) Rate() float64 {
	if in == nil {
		return 0
	}
	return in.rate
}

// Hit reports whether the fault fires at this site.
func (in *Injector) Hit(site uint64) bool {
	if in == nil {
		return false
	}
	return u01(rng.Mix(in.seed^rng.Mix(site))) < in.rate
}

// Hit2 is Hit over a compound (site, salt) key — e.g. (IP, app) so the
// same IP seen by two crawlers fails independently per crawler.
func (in *Injector) Hit2(site, salt uint64) bool {
	if in == nil {
		return false
	}
	return in.Hit(rng.Mix(site ^ rng.Mix(salt)))
}

// Rand returns 64 deterministic bits for this site, independent of the
// Hit decision — the entropy source for fault payloads (which garbage
// coordinate, which corruption mode). Returns 0 on nil.
func (in *Injector) Rand(site uint64) uint64 {
	if in == nil {
		return 0
	}
	return rng.Mix(in.seed ^ 0xa5a5a5a5a5a5a5a5 ^ rng.Mix(site))
}
