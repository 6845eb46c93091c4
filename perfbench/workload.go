package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"eyeballas/internal/client"
	"eyeballas/internal/obs"
	"eyeballas/internal/serve"
	"eyeballas/internal/trace"
)

// endToEnd are the result-line metrics of an untraced run, the same on
// every workload.
var endToEnd = []string{
	"setup_s", "build_s", "build_peak_heap_mib", "heap_mib", "capacity_per_cpu",
}

// perLayer are the result-line metrics of a traced run, the same on every
// workload. Footprint-cache ratios read 0 on serve_point, where no
// footprint is requested.
var perLayer = []string{
	"astopo.generate_s", "p2p.crawl_s", "p2p.peers",
	"bgp.routing_s", "bgp.ribs_s", "bgp.origin_table_s", "bgp.origin_of_ns",
	"geodb.locate_ns",
	"pipeline.build_s", "pipeline.ns_per_peer", "pipeline.kept_frac", "pipeline.peak_heap_mib",
	"snapshot.encode_s", "snapshot.write_s", "snapshot.decode_s", "snapshot.read_s", "snapshot.mib",
	"serve.lookup_us.p50", "serve.lookup_us.p99", "serve.as_us.p50", "serve.as_us.p99",
	"serve.footprint_us.p50", "serve.footprint_us.p99", "serve.footprints_ms.p50", "serve.footprints_ms.p99",
	"serve.allocs_per_lookup", "serve.allocs_per_as", "serve.allocs_per_footprint_hit",
	"serve.render_ms.p50", "serve.render_ms.p99", "core.estimate_ms.p50", "core.estimate_ms.p99",
	"kde.estimate_ms.p50", "kde.estimate_ms.p99",
	"serve.request_us.p50", "serve.request_us.p99", "client.request_us.p50", "client.request_us.p99",
	"client.retries", "serve.timeouts", "serve.shed",
	"serve.cache_hit_frac", "serve.coalesced_frac", "serve.cache_mib", "serve.cache_hit_frac.first1k",
	"loadgen.lag_ms.p99", "runtime.gc_cpu_frac",
	"trace.overhead_p50_frac", "trace.overhead_capacity_frac",
}

// openShare is the part of the measured phase spent in the open loop; the
// rest measures capacity. The open-loop latencies are printed but kept off
// the result line, while capacity is on it, so capacity gets the larger
// share.
const openShare = 0.4

// minPlan is the shortest request plan. The open loop takes the plan's
// first entries and the closed loop the ones after them, so on
// serve_footprint, where the closed loop completes about 10k requests in
// a 30 s run, it asks for fresh keys rather than repeating the open
// loop's few hundred, whose hit fraction depends on the seed.
const minPlan = 1 << 14

// traceWindow is the width of the alternating traced/untraced windows.
const traceWindow = 250 * time.Millisecond

// cacheCounts is a reading of the server's footprint cache funnel.
type cacheCounts struct{ hit, miss, coalesced int64 }

func readCache(reg *obs.Registry) cacheCounts {
	c := func(result string) int64 {
		return reg.Counter("eyeball_serve_footprint_cache_total", "result", result).Value()
	}
	return cacheCounts{hit: c("hit"), miss: c("miss"), coalesced: c("coalesced")}
}

func (c cacheCounts) sub(d cacheCounts) cacheCounts {
	return cacheCounts{hit: c.hit - d.hit, miss: c.miss - d.miss, coalesced: c.coalesced - d.coalesced}
}

func (c cacheCounts) total() int64 { return c.hit + c.miss + c.coalesced }

func (c cacheCounts) frac(n int64) float64 {
	if c.total() == 0 {
		return 0
	}
	return float64(n) / float64(c.total())
}

// sumCounter adds up a counter over the server's endpoint labels.
func sumCounter(reg *obs.Registry, name string) int64 {
	var n int64
	for _, ep := range []string{"healthz", "as", "lookup", "footprint", "footprints", "reload"} {
		n += reg.Counter(name, "endpoint", ep).Value()
	}
	return n
}

// waitWarm blocks until the server's warm pass has rendered every AS.
func waitWarm(ctx context.Context, reg *obs.Registry) error {
	total, done := reg.Gauge("eyeball_serve_warm_total"), reg.Gauge("eyeball_serve_warm_done")
	for total.Value() == 0 || done.Value() < total.Value() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// latencies returns the sorted latencies of the samples that pass keep;
// a failed or wrong request counts as infinitely slow, so it misses any
// latency limit.
func latencies(ss []sample, keep func(sample) bool) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if !keep(s) {
			continue
		}
		if s.oc != okOutcome {
			out = append(out, time.Duration(1<<63-1))
			continue
		}
		out = append(out, s.lat)
	}
	return sortDurations(out)
}

func single(s sample) bool { return s.kind != opBulk }

func runWorkload(ctx context.Context, o options, out io.Writer) (*result, error) {
	r := newReport(out)
	printMeta(r, o)
	wl := o.workload
	setupStart := time.Now()

	var tracer *trace.Tracer
	if o.traced {
		tracer = trace.New(trace.Options{Seed: o.seed})
	}
	spans := &spanLog{}
	openDur := time.Duration(o.seconds * openShare * float64(time.Second))
	capDur := time.Duration(o.seconds * (1 - openShare) * float64(time.Second))
	nOps := max(int(wl.rate*openDur.Seconds()), 1)

	b, err := prepare(ctx, o, r, tracer, spans, max(nOps, minPlan))
	if err != nil {
		return nil, err
	}
	defer os.Remove(b.path)
	buildSpans := spans.take()

	snap, loads, err := loadArtifact(b, 7)
	if err != nil {
		return nil, err
	}
	loadS := loads[len(loads)/2]
	r.printf("load snapshot.ReadFile seconds, sorted: %.4f", loads)
	reg := obs.New()
	srv := serve.New(serve.Options{Warm: wl.warm, Obs: reg})
	defer srv.Close()
	installed := time.Now()
	srv.Load(snap, b.path)
	snap = nil
	if wl.warm {
		if err := waitWarm(ctx, reg); err != nil {
			return nil, err
		}
	}
	warmS := secs(time.Since(installed))

	// Each closed-loop slice spans at least four windows, so both traced
	// and untraced windows occur in it.
	windows := &traceWindows{enabled: o.traced, width: min(traceWindow, capDur/slices/4)}
	var handler http.Handler = srv.Handler()
	wrap := &serveSpans{h: handler, tracer: tracer, windows: windows}
	if o.traced {
		handler = wrap
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
		<-served
	}()
	n := senders()
	transport := &http.Transport{MaxIdleConns: n, MaxIdleConnsPerHost: n, MaxConnsPerHost: n, DisableCompression: true}
	defer transport.CloseIdleConnections()
	d := &requester{
		plan:    b.plan,
		check:   b.check,
		tracer:  tracer,
		windows: windows,
		spans:   spans,
	}
	d.c = client.New("http://"+ln.Addr().String(), client.Options{
		HTTPClient: &http.Client{Transport: transport},
		Seed:       o.seed,
		Observer:   func(client.Attempt) { d.attempts.Add(1) },
	})
	setupS := secs(time.Since(setupStart))

	phaseCtx, cancel := context.WithTimeout(ctx, openDur+capDur+120*time.Second)
	defer cancel()
	cache0 := readCache(reg)
	var first1k cacheCounts
	d.firstN = 1000
	d.onFirstN = func() { first1k = readCache(reg).sub(cache0) }
	gc0, busy0 := gcCPU()
	a0, c0 := allocStats()
	m, err := measure(phaseCtx, d, wl.rate, nOps, capDur, windows, &wrap.log)
	if err != nil {
		return nil, err
	}
	gc1, busy1 := gcCPU()
	a1, c1 := allocStats()
	d.onFirstN = nil
	cacheAll := readCache(reg).sub(cache0)
	if d.completed.Load() < d.firstN {
		first1k = cacheAll
	}
	cacheMiB := mib(reg.Gauge("eyeball_serve_footprint_cache_bytes").Value())
	r.printf("gc measured phase alloc=%.1fMiB/s cycles=%d", mib(a1-a0)/(m.openElapsed+m.capElapsed).Seconds(), c1-c0)
	r.printf("cache hit=%.4f coalesced=%.4f lookups=%d", cacheAll.frac(cacheAll.hit), cacheAll.frac(cacheAll.coalesced), cacheAll.total())
	runtime.GC()
	heapMiB := mib(float64(liveHeap()))

	retries := d.attempts.Load() - d.calls.Load()
	postAttempted, postFailed := d.postChecks(phaseCtx, b.lookups)
	r.printf("%s", phaseLine("open_loop", m.open, m.openElapsed, fmt.Sprintf("rate=%g req/s", wl.rate)))
	r.printf("%s", phaseLine("capacity", m.closed, m.capElapsed, fmt.Sprintf("closed loop, %d senders", n)))
	r.printf("phase %-9s attempted=%d succeeded=%d failed=%d", "checks", postAttempted, postAttempted-postFailed, postFailed)

	res := &result{}
	for _, ss := range [][]sample{m.open, m.closed} {
		for _, s := range ss {
			res.Attempted++
			if s.oc != okOutcome {
				res.Failed++
			}
		}
	}
	res.Attempted += postAttempted
	res.Failed += postFailed
	mismatches := d.check.mismatches.Load()
	res.Correct = mismatches == 0
	if mismatches > 0 {
		r.printf("check FAILED: %d wrong answers; first: %s", mismatches, d.check.first)
	}

	singles := latencies(m.open, single)
	r.printf("slices p50_ms=%.4f capacity_rps=%.1f", m.p50s, m.caps)
	r.printf("capacity busy_cpus=%.3f (process CPU time over closed-loop time)", m.capCPU.Seconds()/m.capElapsed.Seconds())
	r.printf("latency open-loop singles n=%d p50=%.4fms p90=%.4fms p99=%.4fms p999=%.4fms (from due time)",
		len(singles), ms(quantile(singles, 0.5)), ms(quantile(singles, 0.9)), ms(quantile(singles, 0.99)), ms(quantile(singles, 0.999)))
	for k := opKind(0); k < numKinds; k++ {
		lk := latencies(m.open, func(s sample) bool { return s.kind == k })
		if len(lk) > 0 {
			r.printf("latency open-loop %-10s n=%d p50=%.4fms p99=%.4fms", kindNames[k], len(lk), ms(quantile(lk, 0.5)), ms(quantile(lk, 0.99)))
		}
	}
	if bulk := latencies(m.open, func(s sample) bool { return s.kind == opBulk }); len(bulk) > 0 {
		r.note("bulk_p99_ms", ms(quantile(bulk, 0.99)), "ms")
	}
	r.note("p50_ms", ms(quantile(singles, 0.5)), "ms")
	r.note("p99_ms", ms(quantile(singles, 0.99)), "ms")
	r.note("p999_ms", ms(quantile(singles, 0.999)), "ms")
	r.note("capacity_rps", m.capacity(), "req/s")
	r.note("load_s", loadS, "s")
	r.note("error_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	r.note("serve.warm_s", warmS, "s")
	r.note("serve.cache_hit_frac.first1k", first1k.frac(first1k.hit), "ratio")
	r.printf("note shedding onset is not measured: with %d connections and MaxInflight 64 the limiter never sheds on this host", n)

	if !o.traced {
		r.set("setup_s", setupS, "s")
		r.set("build_s", b.buildS, "s")
		r.set("build_peak_heap_mib", b.peakMiB, "MiB")
		r.set("heap_mib", heapMiB, "MiB")
		r.set("capacity_per_cpu", m.capacityPerCPU(), "req/cpu-s")
		if err := r.check(endToEnd); err != nil {
			return nil, err
		}
		res.Metrics = r.metrics
		return res, nil
	}

	// Traced run: serial probes of the serve and render layers, then the
	// per-layer metrics from the spans.
	art := srv.Artifact().Snap.Dataset
	probe, err := probeServe(srv.Handler(), art, b.lookups, tracer, spans)
	if err != nil {
		return nil, err
	}
	if err := probeRender(ctx, art, o.seed, 32, tracer, spans); err != nil {
		return nil, err
	}
	probes := newSpanStats(spans.take())
	load := newSpanStats(m.openClient, m.openServer)

	for name, v := range b.stage {
		if name != "geodb.open_s" {
			r.set(name, v, "s")
		}
	}
	for name, v := range b.layer {
		r.set(name, v, layerUnit(name))
	}
	for name, v := range probe {
		r.set(name, v, "count")
	}
	us, msec := time.Microsecond, time.Millisecond
	r.set("snapshot.read_s", loadS, "s")
	r.set("serve.lookup_us.p50", probes.pct("probe.serve.lookup", 0.5, us), "us")
	r.set("serve.lookup_us.p99", probes.pct("probe.serve.lookup", 0.99, us), "us")
	r.set("serve.as_us.p50", probes.pct("probe.serve.as", 0.5, us), "us")
	r.set("serve.as_us.p99", probes.pct("probe.serve.as", 0.99, us), "us")
	r.set("serve.footprint_us.p50", probes.pct("probe.serve.footprint", 0.5, us), "us")
	r.set("serve.footprint_us.p99", probes.pct("probe.serve.footprint", 0.99, us), "us")
	r.set("serve.footprints_ms.p50", probes.pct("probe.serve.footprints", 0.5, msec), "ms")
	r.set("serve.footprints_ms.p99", probes.pct("probe.serve.footprints", 0.99, msec), "ms")
	for _, layer := range []string{"serve.render", "core.estimate", "kde.estimate"} {
		r.set(layer+"_ms.p50", probes.pct(layer, 0.5, msec), "ms")
		r.set(layer+"_ms.p99", probes.pct(layer, 0.99, msec), "ms")
	}
	serverSingles := load.merged("serve.lookup", "serve.as", "serve.footprint")
	clientSingles := load.merged("client.lookup", "client.as", "client.footprint")
	r.set("serve.request_us.p50", float64(quantile(serverSingles, 0.5))/float64(us), "us")
	r.set("serve.request_us.p99", float64(quantile(serverSingles, 0.99))/float64(us), "us")
	r.set("client.request_us.p50", float64(quantile(clientSingles, 0.5))/float64(us), "us")
	r.set("client.request_us.p99", float64(quantile(clientSingles, 0.99))/float64(us), "us")
	for _, name := range []string{"serve.lookup", "serve.as", "serve.footprint", "serve.footprints", "client.lookup", "client.as", "client.footprint", "client.footprints"} {
		if len(load.durs[name]) > 0 {
			r.printf("layer under load %-18s n=%d p50=%.2fus p99=%.2fus", name, len(load.durs[name]), load.pct(name, 0.5, us), load.pct(name, 0.99, us))
		}
	}
	r.set("client.retries", float64(retries), "count")
	r.set("serve.timeouts", float64(sumCounter(reg, "eyeball_serve_timeouts_total")), "count")
	r.set("serve.shed", float64(sumCounter(reg, "eyeball_serve_shed_total")), "count")
	r.set("serve.cache_hit_frac", cacheAll.frac(cacheAll.hit), "ratio")
	r.set("serve.coalesced_frac", cacheAll.frac(cacheAll.coalesced), "ratio")
	r.set("serve.cache_mib", cacheMiB, "MiB")
	r.set("serve.cache_hit_frac.first1k", first1k.frac(first1k.hit), "ratio")
	lags := make([]time.Duration, len(m.open))
	for i, s := range m.open {
		lags[i] = s.lag
	}
	r.set("loadgen.lag_ms.p99", ms(quantile(sortDurations(lags), 0.99)), "ms")
	r.set("runtime.gc_cpu_frac", (gc1-gc0)/(busy1-busy0), "ratio")
	p50On := quantile(latencies(m.open, func(s sample) bool { return single(s) && s.traced }), 0.5)
	p50Off := quantile(latencies(m.open, func(s sample) bool { return single(s) && !s.traced }), 0.5)
	r.set("trace.overhead_p50_frac", float64(p50On)/float64(p50Off)-1, "ratio")
	capOn, capOff := m.capCount[1]/m.capSpan[1].Seconds(), m.capCount[0]/m.capSpan[0].Seconds()
	r.set("trace.overhead_capacity_frac", capOff/capOn-1, "ratio")

	newSpanStats(buildSpans, m.openClient, m.openServer, m.capClient, m.capServer).print(r, "build and load")
	probes.print(r, "probes")
	if err := r.check(perLayer); err != nil {
		return nil, err
	}
	res.Metrics = r.metrics
	return res, nil
}

// slices is how many open-loop/closed-loop pairs the measured phase is
// cut into. Alternating the two loops spreads both over the whole run, so
// a slow stretch of the shared host weighs on latency and capacity alike
// instead of on one of them.
const slices = 6

// measured is what the measured phase records.
type measured struct {
	open, closed            []sample
	openElapsed, capElapsed time.Duration
	capCPU                  time.Duration // process CPU time spent in the closed loops
	p50s, caps              []float64     // per slice, for the report: open-loop p50 (ms), completions/s

	// capCount and capSpan are the closed loops' successful completions
	// and time in untraced [0] and traced [1] windows.
	capCount [2]float64
	capSpan  [2]time.Duration

	openClient, openServer, capClient, capServer []*trace.Span
}

// measure runs the measured phase: slices of open loop at the fixed rate,
// each followed by a slice of closed loop.
func measure(ctx context.Context, d *requester, rate float64, nOps int, capDur time.Duration, windows *traceWindows, server *spanLog) (*measured, error) {
	m := &measured{}
	capNext := nOps
	for k := 0; k < slices; k++ {
		lo, hi := nOps*k/slices, nOps*(k+1)/slices
		start := time.Now().Add(2 * time.Millisecond)
		windows.restart(start)
		ss, err := openLoop(ctx, start, rate, hi-lo, senders(), d.sendFrom(lo))
		if err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
		m.openElapsed += time.Since(start)
		m.open = append(m.open, ss...)
		m.p50s = append(m.p50s, ms(quantile(latencies(ss, single), 0.5)))
		m.openClient = append(m.openClient, d.spans.take()...)
		m.openServer = append(m.openServer, server.take()...)

		cpu0 := processCPU()
		capStart := time.Now()
		windows.restart(capStart)
		cs, elapsed := closedLoop(ctx, capStart, capDur/slices, senders(), d.sendFrom(capNext))
		m.capCPU += processCPU() - cpu0
		capNext += len(cs)
		m.capElapsed += elapsed
		m.closed = append(m.closed, cs...)
		ok := 0
		for _, s := range cs {
			if s.oc == okOutcome {
				ok++
				m.capCount[(s.at/windows.width)%2]++
			}
		}
		m.caps = append(m.caps, float64(ok)/elapsed.Seconds())
		for w := time.Duration(0); w*windows.width < elapsed; w++ {
			m.capSpan[w%2] += min(windows.width, elapsed-w*windows.width)
		}
		m.capClient = append(m.capClient, d.spans.take()...)
		m.capServer = append(m.capServer, server.take()...)
	}
	return m, nil
}

// capacity is the closed loops' successful completions per second.
func (m *measured) capacity() float64 { return m.closedOK() / m.capElapsed.Seconds() }

// capacityPerCPU is the closed loops' successful completions per second of
// process CPU time, client and server together. Unlike capacity it leaves
// out the time a vCPU sits idle between hand-offs, which on a shared VM
// depends on the hypervisor more than on the program.
func (m *measured) capacityPerCPU() float64 { return m.closedOK() / m.capCPU.Seconds() }

func (m *measured) closedOK() float64 {
	ok := 0
	for _, s := range m.closed {
		if s.oc == okOutcome {
			ok++
		}
	}
	return float64(ok)
}

func layerUnit(name string) string {
	switch name {
	case "p2p.peers":
		return "count"
	case "pipeline.kept_frac":
		return "ratio"
	case "bgp.origin_of_ns", "geodb.locate_ns", "pipeline.ns_per_peer":
		return "ns"
	case "pipeline.peak_heap_mib", "snapshot.mib":
		return "MiB"
	}
	return "s"
}
