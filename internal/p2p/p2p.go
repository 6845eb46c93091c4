// Package p2p simulates the paper's three measurement crawls — Kad,
// Gnutella, and BitTorrent (§2, "Sampling End-users") — over a synthetic
// world. Each crawler observes a different biased subset of each AS's
// user population, reproducing the input structure the paper works from:
// app penetration differs sharply by region (Table 1: Kad dominates
// Europe and Asia, Gnutella dominates North America), and no crawler sees
// every user.
//
// The models here are statistical summaries of the crawlers' outcomes,
// which keeps the pipeline fast at millions of peers. One protocol-level
// check backs them: internal/dht builds a Kademlia overlay and crawls it
// zone by zone, and its TestCrawlCoverageMatchesStatisticalModel
// confirms that the Kad coverage regime assumed here emerges from that
// crawl. The Gnutella and BitTorrent regimes have no such check.
package p2p

import (
	"context"
	"fmt"
	"io"
	"math"

	"eyeballas/internal/astopo"
	"eyeballas/internal/faults"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/obs"
	"eyeballas/internal/rng"
	"eyeballas/internal/users"
)

// App identifies a P2P application.
type App int

// The three crawled applications.
const (
	Kad App = iota
	Gnutella
	BitTorrent
)

// Apps lists all applications in a fixed order.
var Apps = []App{Kad, Gnutella, BitTorrent}

// String names the application.
func (a App) String() string {
	switch a {
	case Kad:
		return "kad"
	case Gnutella:
		return "gnutella"
	case BitTorrent:
		return "bittorrent"
	default:
		return fmt.Sprintf("app(%d)", int(a))
	}
}

// Peer is one observed P2P user. TrueLoc and TrueASN are ground truth
// carried along for evaluation; the measurement pipeline must not consult
// them (it uses the geolocation databases and BGP tables instead).
type Peer struct {
	IP      ipnet.Addr
	App     App
	TrueASN astopo.ASN
	TrueLoc geo.Point
}

// Config controls the crawl simulation.
type Config struct {
	// Scale multiplies every expected observation count — the knob that
	// shrinks the paper's 89M-peer crawl to laptop size.
	Scale float64
	// Penetration[app][region] is the fraction of a region's end users
	// running the app.
	Penetration map[App]map[gazetteer.Region]float64
	// KadZones is the number of DHT ID-space zones the Kad crawler walks.
	KadZones int
	// Torrents is the number of swarms the BitTorrent crawler scrapes.
	Torrents int
	// Obs receives crawl metrics (contacts/peers/dups per app); nil
	// disables instrumentation. Metrics are a
	// read-only side channel: the crawl is byte-identical either way.
	Obs *obs.Registry
	// Faults injects crawl-level failures (faults.CrawlLoss drops a
	// response after the crawler observed the peer; faults.CrawlDup
	// records the same peer twice, which downstream unique-IP dedup
	// must absorb). Decisions are keyed by (IP, app), so the same plan
	// always loses the same responses. Nil disables injection and is
	// bit-identical to a plan with zero rates.
	Faults *faults.Plan
}

// DefaultConfig returns penetration rates tuned so the per-region peer
// totals mirror Table 1's asymmetry: Kad dominates EU and AS, Gnutella
// dominates NA, BitTorrent is a modest third everywhere.
func DefaultConfig() Config {
	return Config{
		Scale:    0.5,
		KadZones: 64,
		Torrents: 400,
		Penetration: map[App]map[gazetteer.Region]float64{
			Kad: {
				gazetteer.NA: 0.012, gazetteer.EU: 0.14, gazetteer.AS: 0.14,
				gazetteer.SA: 0.05, gazetteer.AF: 0.03, gazetteer.OC: 0.04,
			},
			Gnutella: {
				gazetteer.NA: 0.090, gazetteer.EU: 0.020, gazetteer.AS: 0.013,
				gazetteer.SA: 0.02, gazetteer.AF: 0.01, gazetteer.OC: 0.03,
			},
			BitTorrent: {
				gazetteer.NA: 0.018, gazetteer.EU: 0.020, gazetteer.AS: 0.008,
				gazetteer.SA: 0.02, gazetteer.AF: 0.01, gazetteer.OC: 0.02,
			},
		},
	}
}

func (c Config) validate() error {
	if c.Scale <= 0 {
		return fmt.Errorf("p2p: Scale must be positive")
	}
	if len(c.Penetration) == 0 {
		return fmt.Errorf("p2p: Penetration is empty")
	}
	if c.KadZones <= 0 || c.Torrents <= 0 {
		return fmt.Errorf("p2p: KadZones and Torrents must be positive")
	}
	return nil
}

// Crawl is the combined result of the three crawls.
type Crawl struct {
	Peers []Peer
	// ByApp counts recorded observations per app — including any
	// faults.CrawlDup duplicate records, which appear in Peers too —
	// so its sum always equals len(Peers).
	ByApp map[App]int
}

// Run executes all three crawls over the world by draining a
// NewCrawlSource stream, so the materialized crawl and the streaming
// path are identical by construction. The result is deterministic in
// (world, src seed, cfg.Faults), with or without an observability
// registry in cfg.Obs. Cancellation is observed between per-AS crawl
// units: a cancelled run returns ctx.Err() and the partial crawl is
// discarded. A nil ctx means context.Background().
func Run(ctx context.Context, w *astopo.World, cfg Config, src *rng.Source) (*Crawl, error) {
	st, err := NewCrawlSource(w, cfg, src).Stream(ctx)
	if err != nil {
		return nil, err
	}
	out := &Crawl{ByApp: make(map[App]int)}
	buf := make([]Peer, 4096)
	for {
		n, err := st.Next(buf)
		for i := 0; i < n; i++ {
			out.Peers = append(out.Peers, buf[i])
			out.ByApp[buf[i].App]++
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// crawlState bundles what every (AS, app) crawl unit consumes: the
// world's placer, the armed fault injectors, and the per-app crawl
// counters. One crawlState serves one stream (or one Run).
type crawlState struct {
	cfg       Config
	placer    *users.Placer
	loss, dup *faults.Injector
	// Per-app accounting: raw contacts observed (before the crawlers'
	// unique-IP dedup), peers reported, and dedup-suppressed repeats.
	// Registered once, flushed per (AS, app) — never per draw.
	contactsC, peersC, dupsC []*obs.Counter
	lostC, injDupC           *obs.Counter
}

func newCrawlState(w *astopo.World, cfg Config) *crawlState {
	cs := &crawlState{
		cfg:       cfg,
		placer:    users.NewPlacer(w),
		loss:      cfg.Faults.Injector(faults.CrawlLoss),
		dup:       cfg.Faults.Injector(faults.CrawlDup),
		contactsC: make([]*obs.Counter, len(Apps)),
		peersC:    make([]*obs.Counter, len(Apps)),
		dupsC:     make([]*obs.Counter, len(Apps)),
	}
	if cfg.Obs != nil {
		for _, app := range Apps {
			cs.contactsC[app] = cfg.Obs.Counter("eyeball_crawl_contacts_total", "app", app.String())
			cs.peersC[app] = cfg.Obs.Counter("eyeball_crawl_peers_total", "app", app.String())
			cs.dupsC[app] = cfg.Obs.Counter("eyeball_crawl_dup_contacts_total", "app", app.String())
		}
		if cs.loss != nil || cs.dup != nil {
			cs.lostC = cfg.Obs.Counter("eyeball_crawl_injected_lost_total")
			cs.injDupC = cfg.Obs.Counter("eyeball_crawl_injected_dup_total")
		}
	}
	return cs
}

// unit simulates one (AS, app) crawl unit, invoking emit for every
// recorded observation — including injected duplicate records — in a
// fixed order that depends only on (world, seed, plan), never on how
// the caller batches or schedules the output.
func (cs *crawlState) unit(a *astopo.AS, app App, src *rng.Source, emit func(Peer)) {
	cfg := cs.cfg
	pen := cfg.Penetration[app][a.Region]
	if pen <= 0 {
		return
	}
	appUsers := float64(a.Customers) * pen * cfg.Scale
	s := src.SplitN(fmt.Sprintf("crawl-%s", app), int(a.ASN))
	var n int
	switch app {
	case Kad:
		n = kadObserved(s, appUsers, cfg.KadZones)
	case Gnutella:
		n = gnutellaObserved(s, appUsers)
	case BitTorrent:
		n = bittorrentObserved(s, appUsers, cfg.Torrents)
	}
	if n == 0 {
		return
	}
	seen := make(map[ipnet.Addr]bool, n)
	unique, lost, injDups := 0, 0, 0
	for i := 0; i < n; i++ {
		u := users.User{
			IP:      cs.placer.IPFor(a, s),
			ASN:     a.ASN,
			TrueLoc: cs.placer.Place(a, s),
		}
		if seen[u.IP] {
			continue // crawlers report unique IPs per app
		}
		seen[u.IP] = true
		// crawl-loss: the crawler contacted the peer but the
		// response was lost before being recorded. The decision is
		// per (IP, app), after dedup, so the same plan always
		// loses the same peers — and the RNG draw sequence above
		// is untouched, so a zero-rate plan is bit-identical.
		if cs.loss.Hit2(uint64(u.IP), uint64(app)) {
			lost++
			continue
		}
		unique++
		peer := Peer{
			IP: u.IP, App: app, TrueASN: u.ASN, TrueLoc: u.TrueLoc,
		}
		emit(peer)
		// crawl-dup: the same response recorded twice (a retry
		// that both landed); downstream unique-IP dedup absorbs it.
		if cs.dup.Hit2(uint64(u.IP), uint64(app)) {
			injDups++
			emit(peer)
		}
	}
	cs.contactsC[app].Add(int64(n))
	// Peers reported = every record the crawler handed over, injected
	// duplicates included — so the per-app counters sum to the crawl
	// size (and to the pipeline's CrawledPeers) under any fault plan.
	// The injected-dup share stays separately visible in injDupC.
	// (Counting only unique peers here used to undercount against
	// ByApp whenever CrawlDup was armed.)
	cs.peersC[app].Add(int64(unique + injDups))
	cs.dupsC[app].Add(int64(n - unique - lost))
	if cs.lostC != nil {
		cs.lostC.Add(int64(lost))
		cs.injDupC.Add(int64(injDups))
	}
}

// kadObserved models a DHT ID-space walk: the crawler sweeps KadZones
// zones of the hash space; each zone is covered well but not perfectly,
// with independent per-zone coverage.
func kadObserved(s *rng.Source, appUsers float64, zones int) int {
	perZone := appUsers / float64(zones)
	total := 0
	for z := 0; z < zones; z++ {
		cov := s.TruncNorm(0.88, 0.08, 0.5, 1.0)
		total += s.Poisson(perZone * cov)
	}
	return total
}

// gnutellaObserved models a snowball crawl of the overlay: discovery
// probability grows with the AS's user count (well-connected regions are
// reached; sparse leafs are missed), with high per-AS variance.
func gnutellaObserved(s *rng.Source, appUsers float64) int {
	if appUsers <= 0 {
		return 0
	}
	reach := math.Min(1, math.Log10(appUsers+1)/3.5)
	cov := 0.80 * reach * s.TruncNorm(1, 0.25, 0.4, 1.6)
	return s.Poisson(appUsers * cov)
}

// bittorrentObserved models tracker/PEX scrapes of Zipf-popular swarms:
// the observed fraction fluctuates strongly AS to AS (swarm membership is
// bursty), modelled as a Poisson with an exponentially-mixed mean.
func bittorrentObserved(s *rng.Source, appUsers float64, torrents int) int {
	// Larger torrent sets smooth the dispersion.
	dispersion := 1.0 / math.Sqrt(float64(torrents)/100)
	mult := s.Exp(1) // mean 1, heavy fluctuation
	cov := 0.7 * (1 + dispersion*(mult-1))
	if cov < 0.05 {
		cov = 0.05
	}
	if cov > 1.5 {
		cov = 1.5
	}
	return s.Poisson(appUsers * cov)
}
