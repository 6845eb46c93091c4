package serve

import (
	"container/heap"
	"context"
	"sync"

	"eyeballas/internal/astopo"
	"eyeballas/internal/obs"
)

// cacheKey identifies one rendered footprint. The snapshot generation
// is part of the key, so a render of one artifact is never served for
// another; each install drops the bodies of every other generation (see
// renderTable.install).
type cacheKey struct {
	gen uint64
	asn astopo.ASN
	bw  uint64 // math.Float64bits of the bandwidth, so NaN/-0 key safely
}

// renderTable is the server's one record of footprint renders: a map
// from key to entry under one mutex. An entry is either a render in
// flight — its leader renders while later lookups of the key wait on
// it — or a finished body in a heap bounded by the cache size. A lookup
// and a leader's finish each take the mutex once, and finish turns a
// render in flight into a cached body in one step, so a lookup either
// joins the render, hits its body or, with the key absent, leads a new
// one: it can never miss the body and then render the key again.
//
// Eviction is GreedyDual-Frequency keyed on render cost: a body's cost
// is the cell count of the KDE surface its render convolved, and its
// priority is L + hits·cost, set when it is cached and again at each
// hit, where hits counts the lookups that found it (1 when cached) and
// L is the priority of the last evicted body (0 at first). A body that
// arrives at a full table evicts the lowest priority, the earliest
// touched of equal ones, raises L to it and enters at L + cost. A
// continental footprint, which costs a hundred times a city one to
// redo, stays that much longer, and a burst of one-off renders — a bulk
// call at a cold bandwidth — displaces the cheap and the unused first.
// Because every new body enters above L, a body that was hot once and
// is no longer asked for is overtaken as L climbs past its priority.
//
// Bodies are immutable once published (handlers write the slice to the
// response without copying). The bound is on entries, not bytes —
// footprint bodies are a few KiB each — but the table keeps exact byte
// accounting of its cached bodies and publishes both through the
// entries/bytes gauges, so the memory the cache holds is visible, not
// inferred.
type renderTable struct {
	mu     sync.Mutex
	max    int       // cached bodies kept; < 1 keeps none, and renders still coalesce
	gen    uint64    // the installed generation; only its bodies are cached
	bytes  int64     // Σ len(body) over cached entries
	floor  int64     // L: the priority of the last evicted body
	clock  uint64    // ticks once per cache or hit, ordering equal priorities
	cached entryHeap // cached entries, lowest priority first
	items  map[cacheKey]*entry

	// entriesG/bytesG mirror the cached entry count and byte total to
	// obs gauges (nil-safe no-ops when metrics or the cache are off).
	// Updated under mu, so the two gauges never disagree. cellsC sums the
	// cost of every render the table leads, cached or not: the work the
	// cache exists to save.
	entriesG *obs.Gauge
	bytesG   *obs.Gauge
	cellsC   *obs.Counter
}

// entry is one render of one key. In flight, idx is -1 and done open;
// finish writes body and err under the table's mutex and then closes
// done, the edge that publishes them to waiters. A cached entry has its
// heap index in idx and is read under the mutex by the lookup that hits
// it.
type entry struct {
	key  cacheKey
	done chan struct{}
	body []byte
	err  error

	// The cached body's eviction state: cost is its render's cell count,
	// hits the lookups that found it, prio L + hits·cost as of its last
	// touch, and touched the table's clock then.
	cost    int64
	hits    int64
	prio    int64
	touched uint64
	idx     int

	// waiters counts the lookups that joined the render (guarded by the
	// table's mutex) — a diagnostic the coalescing tests poll so they
	// release a render only once every requester is parked on it.
	waiters int
}

// entryHeap orders cached entries by priority, the earliest-touched
// first among equals, and keeps each entry's index current so a hit can
// fix its place.
type entryHeap []*entry

func (h entryHeap) Len() int { return len(h) }

func (h entryHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].touched < h[j].touched
}

func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h *entryHeap) Push(x any) {
	e := x.(*entry)
	e.idx = len(*h)
	*h = append(*h, e)
}

func (h *entryHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	e.idx = -1
	return e
}

func newRenderTable(max int, reg *obs.Registry) *renderTable {
	t := &renderTable{max: max, items: make(map[cacheKey]*entry)}
	t.cellsC = reg.Counter("eyeball_serve_footprint_render_cells_total")
	if max > 0 {
		t.entriesG = reg.Gauge("eyeball_serve_footprint_cache_entries")
		t.bytesG = reg.Gauge("eyeball_serve_footprint_cache_bytes")
	}
	return t
}

// install makes gen the generation whose bodies the table caches and
// drops every cached body, in one critical section: only the replaced
// generation's bodies are ever cached. Renders of other generations
// still in flight finish for their waiters but are not cached.
func (t *renderTable) install(gen uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen = gen
	for _, e := range t.cached {
		delete(t.items, e.key)
		e.idx = -1
	}
	clear(t.cached)
	t.cached = t.cached[:0]
	t.bytes = 0
	t.publish()
}

// get looks key up and returns its entry with the cache result: hit for
// a cached body, coalesced for a render in flight, and miss for an
// absent key, which get enters as a render the caller leads. A leader
// must finish its entry on every path, a panic included: an unfinished
// entry parks its waiters and holds the key in flight for good.
func (t *renderTable) get(key cacheKey) (*entry, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.items[key]; ok {
		if e.idx >= 0 {
			e.hits++
			t.touch(e)
			heap.Fix(&t.cached, e.idx)
			return e, cacheHit
		}
		e.waiters++
		return e, cacheCoalesced
	}
	e := &entry{key: key, done: make(chan struct{}), idx: -1}
	t.items[key] = e
	return e, cacheMiss
}

// touch sets a cached entry's priority from its hits and cost on the
// current floor, and stamps it with the next tick.
func (t *renderTable) touch(e *entry) {
	e.prio = t.floor + e.hits*e.cost
	t.clock++
	e.touched = t.clock
}

// finish publishes the leader's result and releases the waiters. A body
// of the installed generation is cached at its cost in cells, evicting
// the lowest priority first when the table is full; an error, a table
// that keeps nothing, or a generation no longer installed removes the
// key, so the next lookup leads a fresh render instead of meeting a
// pinned failure or a stale body. Every successful render adds its cost
// to the render-cells counter, cached or not.
func (t *renderTable) finish(e *entry, body []byte, cost int, err error) {
	t.mu.Lock()
	e.body, e.err = body, err
	if err == nil {
		t.cellsC.Add(int64(cost))
	}
	if err == nil && t.max > 0 && e.key.gen == t.gen {
		if len(t.cached) == t.max {
			old := heap.Pop(&t.cached).(*entry)
			t.floor = old.prio
			delete(t.items, old.key)
			t.bytes -= int64(len(old.body))
		}
		e.cost, e.hits = int64(cost), 1
		t.touch(e)
		heap.Push(&t.cached, e)
		t.bytes += int64(len(body))
		t.publish()
	} else {
		delete(t.items, e.key)
	}
	t.mu.Unlock()
	close(e.done)
}

// publish mirrors the cached entry count and bytes to the gauges. The
// caller holds mu.
func (t *renderTable) publish() {
	t.entriesG.Set(float64(len(t.cached)))
	t.bytesG.Set(float64(t.bytes))
}

// wait blocks until the render finishes or ctx expires, whichever comes
// first. A waiter that gives up disturbs neither the leader nor the
// other waiters.
func (e *entry) wait(ctx context.Context) ([]byte, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-e.done:
		return e.body, e.err
	}
}
