package serve

import (
	"context"
	"math"
	"sort"
	"time"

	"eyeballas/internal/parallel"
	"eyeballas/internal/pipeline"
)

// Warmer is one background cache-warming pass over one installed
// artifact: it renders, at the server's default bandwidth, the
// footprints of the most-used ASes the cache can hold — the top
// min(CacheSize, ASes) by user count, most-used first — so the ASes
// that dominate traffic are hot before the first request asks for them.
// Rendering more would only evict those ASes in favour of the least
// used; a server without a cache warms nothing. A pass runs after every
// artifact install — startup load, successful reload, and rollback —
// and the next install (or Server.Close) cancels it; cancelled renders
// stop at KDE block boundaries, so teardown is prompt and leak-free.
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
// done == total with total > 0 means the pass finished.
type Warmer struct {
	srv   *Server
	art   *Artifact
	ctx   context.Context
	order []*pipeline.ASRecord // the warm set, in render order

	cancel context.CancelFunc
	done   chan struct{} // closed when every worker has exited
}

// warmYieldPoll is how often a yielding warm worker re-checks live
// load.
const warmYieldPoll = 5 * time.Millisecond

// startWarm begins a warm pass for a just-installed artifact,
// cancelling (and waiting out) the previous pass first so at most one
// pass ever runs. No-op unless Options.Warm is set, or after Close.
func (s *Server) startWarm(a *Artifact) {
	if !s.opts.Warm {
		return
	}
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	if s.warm != nil {
		s.warm.cancel()
		<-s.warm.done
		s.warm = nil
	}
	if s.closed {
		return
	}
	w := newWarmer(s, a)
	s.warm = w
	go w.run()
}

// warmer returns the current warm pass (tests poll its done channel).
func (s *Server) warmer() *Warmer {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	return s.warm
}

// newWarmer builds the pass and publishes its total/done gauges
// synchronously, so "total > 0, done < total" is observable the moment
// the install returns — CI polls exactly that pair and must never see
// the stale previous pass's counts.
func newWarmer(s *Server, a *Artifact) *Warmer {
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if s.opts.WarmBudget > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), s.opts.WarmBudget)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	order := warmOrder(a.Snap.Dataset)
	order = order[:min(len(order), max(s.opts.CacheSize, 0))]
	w := &Warmer{srv: s, art: a, ctx: ctx, order: order, cancel: cancel, done: make(chan struct{})}
	s.opts.Obs.Gauge("eyeball_serve_warm_total").Set(float64(len(order)))
	s.opts.Obs.Gauge("eyeball_serve_warm_done").Set(0)
	return w
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

// run executes the pass: WarmWorkers of the shared pool's workers take
// the warm set in order until it is exhausted or the context dies. A
// panicking render is counted and left to the pool, which recovers it.
// The pool's error — a cancellation or a recovered panic — is dropped:
// the done gauge short of total is what marks the pass incomplete.
func (w *Warmer) run() {
	defer close(w.done)
	defer w.cancel() // releases the budget timer when the pass finishes early
	doneG := w.srv.opts.Obs.Gauge("eyeball_serve_warm_done")
	panics := w.srv.opts.Obs.Counter("eyeball_serve_panics_total", "endpoint", "warm")
	_ = parallel.For(w.ctx, w.srv.opts.WarmWorkers, len(w.order), func(i int) error {
		defer func() {
			if r := recover(); r != nil {
				panics.Inc()
				panic(r)
			}
		}()
		w.srv.warmYield(w.ctx)
		_, _, _ = w.srv.footprint(w.ctx, nil, w.art, w.order[i], w.srv.opts.BandwidthKm)
		if err := w.ctx.Err(); err != nil {
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
