package serve

import (
	"context"
	"math"
	"sort"
	"time"

	"eyeballas/internal/parallel"
	"eyeballas/internal/pipeline"
)

// warmYieldPoll is how often a yielding warm worker re-checks live
// load.
const warmYieldPoll = 5 * time.Millisecond

// startWarm begins a background cache-warming pass over a just-installed
// artifact, stopping the previous pass first so at most one pass ever
// runs. No-op unless Options.Warm is set, or after Close. Callers hold
// mu.
//
// The pass renders, at the server's default bandwidth, the footprints of
// the most-used ASes the cache can hold — the top min(CacheSize, ASes)
// by user count, most-used first — so the ASes that dominate traffic
// are hot before the first request asks for them. Rendering more would
// only evict some of those ASes, the cheapest to redo, in favour of less
// used ones; a server without a cache warms nothing. A pass runs after
// every install — startup load and successful reload — and the next
// install (or Server.Close) cancels it; cancelled renders stop at KDE
// block boundaries, so teardown is prompt and leak-free.
//
// Warm renders run outside the admission limiter: they must never
// consume a slot a live request could have had, and they must keep
// going on an idle server that admits nothing. Instead the pass runs on
// the shared pool (parallel.For, WarmWorkers wide) and, before each
// render, yields to live load — while in-flight live requests hold at
// least half the admission limit, the warmer polls instead of
// rendering. Warm renders go through the same render table as
// requests, so a live cold miss for an AS the warmer is mid-render on
// coalesces onto the warm render instead of duplicating it (and vice
// versa); warm renders increment none of the request-funnel counters.
// The pool recovers a panicking render and goes on with the others,
// whatever the worker count; each such panic counts in
// eyeball_serve_panics_total{endpoint="warm"}, and the server keeps
// serving.
//
// Progress is visible as two gauges, reset at the start of each pass:
// eyeball_serve_warm_total (ASes this pass will attempt, the warm set's
// size) and eyeball_serve_warm_done (renders that returned, successful
// or not; a cancelled or panicking one is not counted).
// done == total with total > 0 means the pass finished. Both are
// published before startWarm returns, so "total > 0, done < total" is
// observable the moment the install returns — CI polls exactly that
// pair and must never see the stale previous pass's counts.
func (s *Server) startWarm(a *Artifact) {
	if !s.opts.Warm {
		return
	}
	s.stopWarm()
	if s.closed {
		return
	}
	order := warmOrder(a.Snap.Dataset)[:s.WarmSize(a)]
	s.opts.Obs.Gauge("eyeball_serve_warm_total").Set(float64(len(order)))
	s.opts.Obs.Gauge("eyeball_serve_warm_done").Set(0)
	ctx, cancel := context.WithCancel(context.Background())
	s.warmStop, s.warmDone = cancel, make(chan struct{})
	go s.runWarm(ctx, a, order, s.warmDone)
}

// WarmSize is the number of ASes a warm pass over a renders, the warm
// set's size that eyeball_serve_warm_total reports: the top
// min(CacheSize, ASes) by users, or 0 when the server does not warm.
func (s *Server) WarmSize(a *Artifact) int {
	if !s.opts.Warm {
		return 0
	}
	return min(len(a.Snap.Dataset.Order), max(s.opts.CacheSize, 0))
}

// stopWarm cancels the running warm pass, if any, and waits for its
// workers to exit. Callers hold mu; the pass never takes it, so the
// wait cannot deadlock.
func (s *Server) stopWarm() {
	if s.warmStop == nil {
		return
	}
	s.warmStop()
	<-s.warmDone
	s.warmStop, s.warmDone = nil, nil
}

// warmOrder returns the pass's render order: descending user count,
// ties broken by ascending ASN so the order is deterministic.
func warmOrder(ds *pipeline.Dataset) []*pipeline.ASRecord {
	recs := make([]*pipeline.ASRecord, 0, len(ds.Order))
	for _, asn := range ds.Order {
		recs = append(recs, ds.ASes[asn])
	}
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].Users != recs[j].Users {
			return recs[i].Users > recs[j].Users
		}
		return recs[i].ASN < recs[j].ASN
	})
	return recs
}

// runWarm executes the pass over a's warm set and closes done when it
// ends: WarmWorkers of the shared pool's workers take the set in order
// until it is exhausted or ctx dies. A panicking render is counted and
// left to the pool, which recovers it. The pool's error — a
// cancellation or a recovered panic — is dropped: the done gauge short
// of total is what marks the pass incomplete.
func (s *Server) runWarm(ctx context.Context, a *Artifact, order []*pipeline.ASRecord, done chan struct{}) {
	defer close(done)
	doneG := s.opts.Obs.Gauge("eyeball_serve_warm_done")
	panics := s.opts.Obs.Counter("eyeball_serve_panics_total", "endpoint", "warm")
	_ = parallel.For(ctx, s.opts.WarmWorkers, len(order), func(i int) error {
		defer func() {
			if r := recover(); r != nil {
				panics.Inc()
				panic(r)
			}
		}()
		s.warmYield(ctx)
		_, _, _ = s.footprint(ctx, nil, a, order[i], s.opts.BandwidthKm)
		if err := ctx.Err(); err != nil {
			return err // a cancelled render warmed nothing
		}
		doneG.Add(1)
		return nil
	})
}

// warmYield blocks while live traffic holds at least half the
// admission limit: the warmer is strictly lower priority than
// requests, so under load it waits its turn instead of stealing CPU
// from renders the limiter already admitted. Unlimited servers
// (MaxInflight < 0) never yield.
func (s *Server) warmYield(ctx context.Context) {
	if s.lim == nil {
		return
	}
	for {
		limit, inflight := s.lim.snapshot()
		if float64(inflight) < math.Ceil(limit)/2 {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(warmYieldPoll):
		}
	}
}
