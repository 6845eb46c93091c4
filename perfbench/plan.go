package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/p2p"
	"eyeballas/internal/pipeline"
	"eyeballas/internal/rng"
	"eyeballas/internal/serve"
)

type opKind uint8

const (
	opLookup    opKind = iota // GET /v1/lookup?ip=
	opAS                      // GET /v1/as/{asn}
	opFootprint               // GET /v1/footprint/{asn}[?bw=]
	opBulk                    // GET /v1/footprints?asns=...[&bw=]
	numKinds
)

var kindNames = [numKinds]string{"lookup", "as", "footprint", "footprints"}

// op is one planned request with the answer computed offline.
type op struct {
	kind opKind
	ip   string
	asn  int
	bw   float64 // 0 = the server's default bandwidth
	asns []int

	wantMatched bool
	wantASN     int
	wantIn      bool
	// wantUsers is the AS's user count; 0 means the AS is not in the
	// dataset and the answer must be a 404.
	wantUsers int
}

// defaultBW is the footprint bandwidth the server uses when a request
// names none (serve.Options' default).
const defaultBW = 40

// bulkSize is the number of ASes in one bulk footprint request.
const bulkSize = 64

// planInputs are the build's intermediate results the plan draws from.
type planInputs struct {
	r       *rng.Source
	world   *astopo.World
	crawl   *p2p.Crawl
	ds      *pipeline.Dataset
	origins *bgp.OriginTable
}

type planFunc func(in *planInputs, n int) ([]op, error)

// asDrawer draws dataset ASes with probability proportional to their
// user counts.
type asDrawer struct {
	asns []int
	cum  []float64
}

func newASDrawer(ds *pipeline.Dataset) *asDrawer {
	d := &asDrawer{}
	total := 0.0
	for _, asn := range ds.Order {
		total += float64(ds.AS(asn).Users)
		d.asns = append(d.asns, int(asn))
		d.cum = append(d.cum, total)
	}
	return d
}

func (d *asDrawer) draw(r *rng.Source) int {
	x := r.Float64() * d.cum[len(d.cum)-1]
	i := sort.SearchFloat64s(d.cum, x)
	return d.asns[min(i, len(d.asns)-1)]
}

// stratified returns n ASes in proportion to their user counts, in
// seeded random order: n evenly spaced points, from one random offset, on
// the cumulative user distribution. Every seed asks for nearly the same
// multiset of ASes, so runs differ in request order, not in how often each
// AS is asked for; with independent draws the footprint workload's hit
// fraction, and with it every latency, moved from seed to seed.
func (d *asDrawer) stratified(r *rng.Source, n int) []int {
	out := make([]int, n)
	off := r.Float64()
	total := d.cum[len(d.cum)-1]
	for k := range out {
		i := sort.SearchFloat64s(d.cum, (float64(k)+off)/float64(n)*total)
		out[k] = d.asns[min(i, len(d.asns)-1)]
	}
	shuffle(r, out)
	return out
}

func shuffle[T any](r *rng.Source, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// bandwidths returns n footprint bandwidths in seeded random order: the
// server default (0) four times in five, otherwise the paper's wider
// kernels in turn.
func bandwidths(r *rng.Source, n int) []float64 {
	out := make([]float64, n)
	for k := 0; k < n/5; k++ {
		out[k] = [...]float64{60, 80, 100}[k%3]
	}
	shuffle(r, out)
	return out
}

// drawBW picks a footprint bandwidth with the same odds as bandwidths.
func drawBW(r *rng.Source) float64 {
	if r.Float64() < 0.8 {
		return 0
	}
	return [...]float64{60, 80, 100}[r.Intn(3)]
}

// lookupOp plans one /v1/lookup of a crawled peer's address.
func lookupOp(in *planInputs) op {
	p := in.crawl.Peers[in.r.Intn(len(in.crawl.Peers))]
	return lookupOf(in, p.IP)
}

func lookupOf(in *planInputs, ip ipnet.Addr) op {
	asn, ok := in.origins.OriginOf(ip)
	o := op{kind: opLookup, ip: ip.String(), wantMatched: ok}
	if ok {
		o.wantASN = int(asn)
		o.wantIn = in.ds.AS(asn) != nil
	}
	return o
}

// unmappedIPs returns addresses no origin-table prefix covers.
func unmappedIPs(in *planInputs, n int) ([]ipnet.Addr, error) {
	var out []ipnet.Addr
	for tries := 0; len(out) < n && tries < 1<<20; tries++ {
		a := ipnet.Addr(in.r.Uint32())
		if _, ok := in.origins.OriginOf(a); !ok {
			out = append(out, a)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("found only %d unmapped addresses", len(out))
	}
	return out, nil
}

// unknownASNs returns world ASes that did not make it into the dataset.
func unknownASNs(in *planInputs, n int) []int {
	var out []int
	for _, asn := range in.world.ASNs() {
		if in.ds.AS(asn) == nil && len(out) < n {
			out = append(out, int(asn))
		}
	}
	if len(out) == 0 {
		out = append(out, int(in.ds.Order[len(in.ds.Order)-1])+1)
	}
	return out
}

// pointPlan is serve_point's mix: 70% /v1/lookup of crawled peer
// addresses (user-weighted by construction) and 30% /v1/as of
// user-weighted ASes; one request in a hundred of each kind targets an
// unmapped address or an AS outside the dataset.
func pointPlan(in *planInputs, n int) ([]op, error) {
	unmapped, err := unmappedIPs(in, 64)
	if err != nil {
		return nil, err
	}
	unknown := unknownASNs(in, 64)
	drawer := newASDrawer(in.ds)
	ops := make([]op, n)
	for i := range ops {
		switch u := in.r.Float64(); {
		case u < 0.01:
			ops[i] = lookupOf(in, unmapped[in.r.Intn(len(unmapped))])
		case u < 0.70:
			ops[i] = lookupOp(in)
		case u < 0.71:
			ops[i] = op{kind: opAS, asn: unknown[in.r.Intn(len(unknown))]}
		default:
			asn := drawer.draw(in.r)
			ops[i] = op{kind: opAS, asn: asn, wantUsers: in.ds.AS(astopo.ASN(asn)).Users}
		}
	}
	return ops, nil
}

// footprintPlan is serve_footprint's mix: single footprints of ASes in
// proportion to their user counts, one request in fifty a bulk call of 64
// such ASes, one in five at a non-default bandwidth.
func footprintPlan(in *planInputs, n int) ([]op, error) {
	drawer := newASDrawer(in.ds)
	// Bulk calls sit at every 50th request, and every 5th bulk call uses a
	// wider kernel. A bulk call at a cold bandwidth replaces half the
	// cache, so their placement moves the hit fraction; fixed spacing keeps
	// it from differing between seeds for that reason.
	phase := in.r.Intn(50)
	isBulk := func(i int) bool { return (i+phase)%50 == 0 }
	nBulk := 0
	for i := 0; i < n; i++ {
		if isBulk(i) {
			nBulk++
		}
	}
	asns := drawer.stratified(in.r, n-nBulk)
	bws := bandwidths(in.r, n-nBulk)
	bulkPhase := in.r.Intn(5)
	ops := make([]op, n)
	for i, b := 0, 0; i < n; i++ {
		if isBulk(i) {
			bw := 0.0
			if (b+bulkPhase)%5 == 0 {
				bw = [...]float64{60, 80, 100}[b/5%3]
			}
			ops[i] = op{kind: opBulk, asns: drawer.stratified(in.r, bulkSize), bw: bw}
			b++
			continue
		}
		ops[i] = op{kind: opFootprint, asn: asns[0], bw: bws[0]}
		asns, bws = asns[1:], bws[1:]
	}
	return ops, nil
}

// lookupSample is a deterministic set of lookups whose bodies are
// byte-compared after the measured phase, unmapped addresses included.
func lookupSample(in *planInputs, n int) ([]op, error) {
	r := rng.New(in.r.Seed()).Split("lookup-sample")
	sub := &planInputs{r: r, world: in.world, crawl: in.crawl, ds: in.ds, origins: in.origins}
	unmapped, err := unmappedIPs(sub, 8)
	if err != nil {
		return nil, err
	}
	var out []op
	for _, a := range unmapped {
		out = append(out, lookupOf(sub, a))
	}
	for len(out) < n {
		out = append(out, lookupOp(sub))
	}
	return out, nil
}

// lookupBody renders the body /v1/lookup must serve for o, in the
// server's encoding (encoding/json over a map, keys sorted).
func lookupBody(o *op) ([]byte, error) {
	m := map[string]any{"ip": o.ip, "matched": o.wantMatched}
	if o.wantMatched {
		m["asn"] = o.wantASN
		m["in_dataset"] = o.wantIn
	}
	b, err := json.Marshal(m)
	return append(b, '\n'), err
}

// fpKey names one rendered footprint.
type fpKey struct {
	asn int
	bw  float64
}

func keyOf(asn int, bw float64) fpKey {
	if bw == 0 {
		bw = defaultBW
	}
	return fpKey{asn: asn, bw: bw}
}

// checker validates footprint bodies. Bodies of a deterministic sample of
// keys are compared byte for byte with serve.RenderFootprint run offline
// on the freshly built dataset; every other body must equal the first
// body served for its key, so bulk lines are checked against the
// matching singles and against each other.
type checker struct {
	want map[fpKey][]byte // read-only after newChecker

	mu   sync.Mutex
	seen map[fpKey]uint64
	seed maphash.Seed

	mismatches atomic.Int64
	firstMu    sync.Mutex
	first      string
}

func newChecker(ctx context.Context, ds *pipeline.Dataset, plan []op, n int) (*checker, error) {
	c := &checker{want: map[fpKey][]byte{}, seen: map[fpKey]uint64{}, seed: maphash.MakeSeed()}
	for i := range plan {
		if len(c.want) >= n {
			break
		}
		o := &plan[i]
		if o.kind != opFootprint {
			continue
		}
		k := keyOf(o.asn, o.bw)
		if _, ok := c.want[k]; ok {
			continue
		}
		body, err := serve.RenderFootprint(ctx, gazetteer.Default(), ds.AS(astopo.ASN(o.asn)), k.bw, 1, nil)
		if err != nil {
			return nil, fmt.Errorf("offline render of AS%d: %w", o.asn, err)
		}
		c.want[k] = body
	}
	return c, nil
}

// footprint checks one served body; false means it was wrong.
func (c *checker) footprint(k fpKey, body []byte) bool {
	if w, ok := c.want[k]; ok {
		if !bytes.Equal(w, body) {
			c.fail("AS%d bw=%g: served body differs from the offline render", k.asn, k.bw)
			return false
		}
		return true
	}
	h := maphash.Bytes(c.seed, body)
	c.mu.Lock()
	prev, ok := c.seen[k]
	if !ok {
		c.seen[k] = h
	}
	c.mu.Unlock()
	if ok && prev != h {
		c.fail("AS%d bw=%g: two served bodies differ", k.asn, k.bw)
		return false
	}
	return true
}

func (c *checker) fail(format string, args ...any) {
	c.mismatches.Add(1)
	c.firstMu.Lock()
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
	c.firstMu.Unlock()
}
