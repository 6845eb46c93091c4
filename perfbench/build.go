package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/geodb"
	"eyeballas/internal/p2p"
	"eyeballas/internal/parallel"
	"eyeballas/internal/pipeline"
	"eyeballas/internal/rng"
	"eyeballas/internal/snapshot"
	"eyeballas/internal/trace"
)

// built is what set-up hands to the serving phase: the artifact on disk,
// the request plan and the offline answers the checks compare against.
// The world, crawl and dataset are not kept, so the serving phase's heap
// holds the loaded artifact, the footprint cache and the plan only.
type built struct {
	path    string
	sum     [32]byte // SHA-256 of the artifact bytes
	buildS  float64  // world → artifact on disk
	peakMiB float64  // peak live heap during the build
	// stage holds per-stage seconds, keyed by per-layer metric name.
	stage map[string]float64
	// layer holds the other per-layer values the build measures.
	layer   map[string]float64
	plan    []op
	lookups []op // deterministic sample for byte-compared lookup bodies
	check   *checker
}

// buildStages are the build's layer calls in order; each is timed and,
// in a traced run, recorded as a child span of the build's root span.
var buildStages = []string{
	"astopo.generate", "p2p.crawl", "bgp.routing", "bgp.ribs", "bgp.origin_table",
	"geodb.open", "pipeline.build", "snapshot.encode", "snapshot.write",
}

// stager times the build's stages and measures the live heap per stage:
// sampled while the stage runs, and retained once it is done (after a
// forced GC, outside the stage's time).
type stager struct {
	root     *trace.Span
	heap     *heapSampler
	secs     map[string]float64
	cpu      map[string]float64 // process CPU seconds, all threads
	sampled  map[string]float64 // stage → peak sampled live heap, MiB
	retained map[string]float64 // stage → live heap after the stage, MiB
}

func (s *stager) run(name string, fn func() error) error {
	s.heap.reset()
	c0 := processCPU()
	t0 := time.Now()
	sp := s.root.ChildAt(name, t0)
	err := fn()
	t1 := time.Now()
	s.cpu[name] = secs(processCPU() - c0)
	sp.EndAt(t1)
	s.secs[name] = secs(t1.Sub(t0))
	s.sampled[name] = mib(float64(s.heap.reset()))
	runtime.GC()
	s.retained[name] = mib(float64(liveHeap()))
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// prepare builds the artifact the way eyeballpipe -snapshot does, one
// public call per layer, checks it, and derives the request plan and the
// offline answers from the build's intermediate results.
func prepare(ctx context.Context, o options, r *report, tr *trace.Tracer, spans *spanLog, nOps int) (*built, error) {
	worldCfg := astopo.DefaultConfig(worldSeed)
	if o.small {
		worldCfg = astopo.SmallConfig(worldSeed)
	}
	heap := startHeapSampler()
	defer heap.close()

	root := tr.Start("perfbench.build")
	st := &stager{root: root, heap: heap, secs: map[string]float64{}, cpu: map[string]float64{}, sampled: map[string]float64{}, retained: map[string]float64{}}
	path := filepath.Join(o.workdir, fmt.Sprintf("perfbench-%d.snap", os.Getpid()))
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}

	var (
		w       *astopo.World
		crawl   *p2p.Crawl
		routing *bgp.Routing
		ribs    []*bgp.RIB
		origins *bgp.OriginTable
		dbA     *geodb.DB
		dbB     *geodb.DB
		ds      *pipeline.Dataset
		data    []byte
	)
	pcfg := pipeline.DefaultConfig()
	pcfg.Workers = runtime.NumCPU()
	steps := []func() error{
		func() (err error) { w, err = astopo.Generate(worldCfg); return err },
		func() (err error) {
			crawl, err = p2p.Run(ctx, w, p2p.DefaultConfig(), rng.New(o.seed).Split("p2p"))
			return err
		},
		func() error { routing = bgp.ComputeRouting(w); return nil },
		func() (err error) { ribs, err = vantageRIBs(ctx, w, routing, pcfg.Workers); return err },
		func() error { origins = bgp.NewOriginTable(ribs...); return nil },
		func() error { dbA, dbB = geodb.NewGeoCity(w), geodb.NewIPLoc(w); return nil },
		func() (err error) { ds, err = pipeline.Build(ctx, crawl, dbA, dbB, origins, pcfg); return err },
		func() error {
			data = snapshot.Encode(&snapshot.Snapshot{
				Meta:    snapshot.Meta{Seed: o.seed, Label: "perfbench"},
				Dataset: ds,
				Origins: origins,
			})
			return nil
		},
		func() error { return snapshot.WriteFileAtomicBytes(path, data) },
	}
	for i, step := range steps {
		if err := st.run(buildStages[i], step); err != nil {
			return nil, err
		}
	}
	root.End()
	spans.add(root)

	b := &built{
		path:  path,
		sum:   sha256.Sum256(data),
		stage: map[string]float64{},
		layer: map[string]float64{},
	}
	// The build's peak is the pipeline's sampled peak or the largest heap a
	// stage leaves behind. Sampling inside the short encode stage catches
	// the encoder's transient buffers only when a GC happens to end there,
	// which would make the figure jump between runs.
	b.peakMiB = st.sampled["pipeline.build"]
	for _, name := range buildStages {
		b.stage[name+"_s"] = st.secs[name]
		b.buildS += st.secs[name]
		b.peakMiB = max(b.peakMiB, st.retained[name])
	}
	b.layer["pipeline.peak_heap_mib"] = st.sampled["pipeline.build"]
	b.layer["p2p.peers"] = float64(len(crawl.Peers))
	b.layer["pipeline.ns_per_peer"] = st.secs["pipeline.build"] * 1e9 / float64(len(crawl.Peers))
	b.layer["pipeline.kept_frac"] = float64(ds.TotalPeers) / float64(ds.CrawledPeers)
	b.layer["snapshot.mib"] = mib(float64(len(data)))

	// Output checks on the build: the funnel ledger conserves every
	// crawled peer, and decoding the artifact re-encodes to the same bytes.
	if err := ds.Funnel.Check(); err != nil {
		return nil, fmt.Errorf("%w: funnel: %v", errCheck, err)
	}
	dec0 := time.Now()
	back, err := snapshot.Decode(data)
	b.layer["snapshot.decode_s"] = secs(time.Since(dec0))
	if err != nil {
		return nil, fmt.Errorf("%w: decoding the fresh artifact: %v", errCheck, err)
	}
	if !bytes.Equal(snapshot.Encode(back), data) {
		return nil, fmt.Errorf("%w: Encode(Decode(artifact)) differs from the artifact", errCheck)
	}
	r.printf("build artifact sha256=%s bytes=%d ases=%d crawled=%d kept=%d", hex.EncodeToString(b.sum[:]), len(data), len(ds.Order), ds.CrawledPeers, ds.TotalPeers)
	r.printf("build funnel: %s", ds.Funnel.Summary())
	for _, name := range buildStages {
		r.printf("build stage %-18s %9.4f s  cpu %9.4f s  live heap: sampled peak %7.1f MiB, after %7.1f MiB", name, st.secs[name], st.cpu[name], st.sampled[name], st.retained[name])
	}

	if o.traced {
		probeOriginOf(b, crawl, origins, tr, spans)
		probeLocate(b, crawl, dbA, dbB, tr, spans)
	}

	in := &planInputs{r: rng.New(o.seed).Split("perfbench/plan"), world: w, crawl: crawl, ds: ds, origins: origins}
	plan, err := o.workload.plan(in, nOps)
	if err != nil {
		return nil, err
	}
	b.plan = plan
	b.lookups, err = lookupSample(in, 256)
	if err != nil {
		return nil, err
	}
	b.check, err = newChecker(ctx, ds, plan, 16)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// vantageRIBs builds the RIBs of the world's first three tier-1 ASes, the
// vantage points the pipeline's origin table is merged from.
func vantageRIBs(ctx context.Context, w *astopo.World, routing *bgp.Routing, workers int) ([]*bgp.RIB, error) {
	var vantages []astopo.ASN
	for _, a := range w.ASes() {
		if a.Kind == astopo.KindTier1 && len(vantages) < 3 {
			vantages = append(vantages, a.ASN)
		}
	}
	if len(vantages) == 0 {
		return nil, fmt.Errorf("world has no tier-1 vantage points")
	}
	ribs := make([]*bgp.RIB, len(vantages))
	err := parallel.ForEach(ctx, workers, vantages, func(i int, v astopo.ASN) error {
		rib, err := bgp.BuildRIB(w, routing, v)
		ribs[i] = rib
		return err
	})
	return ribs, err
}

// loadArtifact reads the artifact n times and returns the last decoded
// snapshot with the sorted read times. A GC before each read keeps one
// read's garbage out of the next one's timing. The loaded snapshot must
// re-encode to the bytes that were written.
func loadArtifact(b *built, n int) (*snapshot.Snapshot, []float64, error) {
	var (
		snap  *snapshot.Snapshot
		times []float64
	)
	for i := 0; i < n; i++ {
		snap = nil
		runtime.GC()
		t0 := time.Now()
		s, err := snapshot.ReadFile(b.path)
		if err != nil {
			return nil, nil, fmt.Errorf("loading the artifact: %w", err)
		}
		times = append(times, secs(time.Since(t0)))
		snap = s
	}
	if sha256.Sum256(snapshot.Encode(snap)) != b.sum {
		return nil, nil, fmt.Errorf("%w: the artifact read back from disk re-encodes differently", errCheck)
	}
	sort.Float64s(times)
	return snap, times, nil
}

// heapSampler polls the live heap (as marked by the last GC) and keeps
// the peak since the last reset.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.peak.Store(liveHeap())
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := liveHeap()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// reset returns the peak since the previous reset and restarts tracking
// from the current live heap.
func (h *heapSampler) reset() uint64 {
	h.observe()
	return h.peak.Swap(liveHeap())
}

func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// gcCPU returns the cumulative GC CPU seconds and busy (non-idle) CPU
// seconds of the process.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// allocStats returns the cumulative heap bytes allocated and GC cycles.
func allocStats() (float64, uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Uint64()
}
