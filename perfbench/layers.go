package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/core"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/geodb"
	"eyeballas/internal/kde"
	"eyeballas/internal/obs"
	"eyeballas/internal/p2p"
	"eyeballas/internal/pipeline"
	"eyeballas/internal/rng"
	"eyeballas/internal/serve"
	"eyeballas/internal/trace"
)

// quantile returns the q-quantile of sorted durations (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// spanStats aggregates span trees by span name: every duration, and the
// self time (duration minus the part its children cover).
type spanStats struct {
	durs map[string][]time.Duration
	self map[string]time.Duration
}

func newSpanStats(roots ...[]*trace.Span) *spanStats {
	s := &spanStats{durs: map[string][]time.Duration{}, self: map[string]time.Duration{}}
	for _, rs := range roots {
		for _, r := range rs {
			s.walk(r.Tree())
		}
	}
	for name := range s.durs {
		sortDurations(s.durs[name])
	}
	return s
}

func (s *spanStats) walk(n obs.TreeNode) {
	s.durs[n.Name] = append(s.durs[n.Name], time.Duration(n.DurNS))
	var kids int64
	for _, c := range n.Children {
		kids += c.DurNS
		s.walk(c)
	}
	s.self[n.Name] += time.Duration(max(n.DurNS-kids, 0))
}

// pct returns the q-quantile of the named spans' durations in unit.
func (s *spanStats) pct(name string, q float64, unit time.Duration) float64 {
	return float64(quantile(s.durs[name], q)) / float64(unit)
}

// merged returns the sorted durations of several span names together.
func (s *spanStats) merged(names ...string) []time.Duration {
	var out []time.Duration
	for _, n := range names {
		out = append(out, s.durs[n]...)
	}
	return sortDurations(out)
}

// print writes the per-span-name self-time table.
func (s *spanStats) print(r *report, title string) {
	names := make([]string, 0, len(s.durs))
	for n := range s.durs {
		names = append(names, n)
	}
	sort.Strings(names)
	r.printf("spans %s: name, count, total ms, self ms", title)
	for _, n := range names {
		var total time.Duration
		for _, d := range s.durs[n] {
			total += d
		}
		r.printf("span %-22s %8d %12.3f %12.3f", n, len(s.durs[n]), ms(total), ms(s.self[n]))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sink keeps measured calls from being optimized away.
var sink int

// probeOriginOf times the compiled LPM over every crawled address, in
// batches, because one lookup is below the timer's resolution.
func probeOriginOf(b *built, crawl *p2p.Crawl, origins *bgp.OriginTable, tr *trace.Tracer, spans *spanLog) {
	const batch = 4096
	var perOp []time.Duration
	peers := crawl.Peers
	for lo := 0; lo+batch <= len(peers); lo += batch {
		t0 := time.Now()
		sp := tr.StartAt("bgp.origin_of", t0, "")
		for _, p := range peers[lo : lo+batch] {
			asn, _ := origins.OriginOf(p.IP)
			sink += int(asn)
		}
		t1 := time.Now()
		sp.EndAt(t1)
		spans.add(sp)
		perOp = append(perOp, t1.Sub(t0)/batch)
	}
	b.layer["bgp.origin_of_ns"] = float64(quantile(sortDurations(perOp), 0.5))
}

// probeLocate times both geolocation databases over an evenly spaced
// sample of crawled peers: ns per peer for the pair of lookups.
func probeLocate(b *built, crawl *p2p.Crawl, dbA, dbB *geodb.DB, tr *trace.Tracer, spans *spanLog) {
	const (
		batch   = 512
		batches = 32
	)
	peers := crawl.Peers
	stride := max(len(peers)/(batch*batches), 1)
	var perPeer []time.Duration
	for k := 0; k < batches; k++ {
		t0 := time.Now()
		sp := tr.StartAt("geodb.locate", t0, "")
		n := 0
		for j := 0; j < batch; j++ {
			i := (k*batch + j) * stride
			if i >= len(peers) {
				break
			}
			p := peers[i]
			ra := dbA.Locate(p.IP, p.TrueLoc)
			rb := dbB.Locate(p.IP, p.TrueLoc)
			sink += len(ra.City) + len(rb.City)
			n++
		}
		t1 := time.Now()
		sp.EndAt(t1)
		spans.add(sp)
		if n > 0 {
			perPeer = append(perPeer, t1.Sub(t0)/time.Duration(n))
		}
	}
	b.layer["geodb.locate_ns"] = float64(quantile(sortDurations(perPeer), 0.5))
}

// bufWriter is a reusable in-memory http.ResponseWriter for serial
// ServeHTTP calls.
type bufWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *bufWriter) Header() http.Header         { return w.header }
func (w *bufWriter) WriteHeader(code int)        { w.code = code }
func (w *bufWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

func (w *bufWriter) reset() {
	clear(w.header)
	w.code = http.StatusOK
	w.body.Reset()
}

// probeHandler calls ServeHTTP serially n times over the given paths,
// each call inside a span of the given name, and returns the allocations
// per call. Every call must answer 200.
func probeHandler(h http.Handler, paths []string, n int, name string, tr *trace.Tracer, spans *spanLog) (float64, error) {
	reqs := make([]*http.Request, len(paths))
	for i, p := range paths {
		r, err := http.NewRequest(http.MethodGet, p, nil)
		if err != nil {
			return 0, err
		}
		reqs[i] = r
	}
	w := &bufWriter{header: http.Header{}}
	call := func(i int) error {
		w.reset()
		h.ServeHTTP(w, reqs[i%len(reqs)])
		if w.code != http.StatusOK {
			return fmt.Errorf("%s: %s answered %d: %s", name, reqs[i%len(reqs)].URL, w.code, bytes.TrimSpace(w.body.Bytes()))
		}
		return nil
	}
	for i := range reqs { // fill the cache and the lazy paths first
		if err := call(i); err != nil {
			return 0, err
		}
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sp := tr.StartAt(name, t0, "")
		err := call(i)
		sp.EndAt(time.Now())
		spans.add(sp)
		if err != nil {
			return 0, err
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(n, func() {
		w.reset()
		h.ServeHTTP(w, reqs[i%len(reqs)])
		i++
	})
	return allocs, nil
}

// topASes returns the dataset's n most-used ASes.
func topASes(ds *pipeline.Dataset, n int) []int {
	recs := ds.Records()
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Users > recs[j].Users })
	var out []int
	for _, r := range recs[:min(n, len(recs))] {
		out = append(out, int(r.ASN))
	}
	return out
}

// probeServe runs the serial ServeHTTP probes against the server's own
// handler, without the network: lookup, AS record, footprint cache hit
// and a bulk call of 64 cached footprints.
func probeServe(h http.Handler, ds *pipeline.Dataset, lookups []op, tr *trace.Tracer, spans *spanLog) (map[string]float64, error) {
	var lookupPaths, asPaths, fpPaths []string
	for _, o := range lookups {
		lookupPaths = append(lookupPaths, "/v1/lookup?ip="+o.ip)
	}
	top := topASes(ds, bulkSize)
	for _, asn := range top {
		asPaths = append(asPaths, "/v1/as/"+strconv.Itoa(asn))
		if len(fpPaths) < 32 {
			fpPaths = append(fpPaths, "/v1/footprint/"+strconv.Itoa(asn))
		}
	}
	asns := make([]string, len(top))
	for i, a := range top {
		asns[i] = strconv.Itoa(a)
	}
	bulkPaths := []string{"/v1/footprints?asns=" + strings.Join(asns, ",")}

	out := map[string]float64{}
	var err error
	if out["serve.allocs_per_lookup"], err = probeHandler(h, lookupPaths, 4000, "probe.serve.lookup", tr, spans); err != nil {
		return nil, err
	}
	if out["serve.allocs_per_as"], err = probeHandler(h, asPaths, 4000, "probe.serve.as", tr, spans); err != nil {
		return nil, err
	}
	if out["serve.allocs_per_footprint_hit"], err = probeHandler(h, fpPaths, 4000, "probe.serve.footprint", tr, spans); err != nil {
		return nil, err
	}
	if _, err = probeHandler(h, bulkPaths, 200, "probe.serve.footprints", tr, spans); err != nil {
		return nil, err
	}
	return out, nil
}

// probeRender times the footprint render path layer by layer over
// distinct user-weighted (AS, bandwidth) keys: serve.RenderFootprint,
// the core.EstimateFootprintCtx call inside it, and the kde.Estimate call
// inside that, reproduced through the same public functions core uses.
func probeRender(ctx context.Context, ds *pipeline.Dataset, seed uint64, n int, tr *trace.Tracer, spans *spanLog) error {
	r := rng.New(seed).Split("perfbench/render-probe")
	drawer := newASDrawer(ds)
	seen := map[fpKey]bool{}
	gaz := gazetteer.Default()
	for tries := 0; len(seen) < n && tries < 100*n; tries++ {
		k := keyOf(drawer.draw(r), drawBW(r))
		if seen[k] {
			continue
		}
		seen[k] = true
		rec := ds.AS(astopo.ASN(k.asn))

		t0 := time.Now()
		sp := tr.StartAt("serve.render", t0, "")
		body, err := serve.RenderFootprint(ctx, gaz, rec, k.bw, 1, nil)
		sp.EndAt(time.Now())
		spans.add(sp)
		if err != nil {
			return fmt.Errorf("render AS%d: %w", k.asn, err)
		}
		sink += len(body)

		t0 = time.Now()
		sp = tr.StartAt("core.estimate", t0, "")
		fp, err := core.EstimateFootprintCtx(ctx, gaz, rec.Samples, core.Options{BandwidthKm: k.bw, Workers: 1})
		sp.EndAt(time.Now())
		spans.add(sp)
		if err != nil {
			return fmt.Errorf("estimate AS%d: %w", k.asn, err)
		}
		sink += len(fp.PoPs)

		pts := make([]geo.Point, len(rec.Samples))
		for i, s := range rec.Samples {
			pts[i] = s.Loc
		}
		centroid, _ := geo.Centroid(pts)
		xys := geo.NewProjection(centroid).ProjectAll(pts)
		t0 = time.Now()
		sp = tr.StartAt("kde.estimate", t0, "")
		g, err := kde.Estimate(ctx, xys, kde.Options{BandwidthKm: k.bw, Workers: 1})
		sp.EndAt(time.Now())
		spans.add(sp)
		if err != nil {
			return fmt.Errorf("kde AS%d: %w", k.asn, err)
		}
		sink += g.W
	}
	return nil
}
