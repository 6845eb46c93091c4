package serve

import (
	"container/list"
	"context"
	"sync"

	"eyeballas/internal/astopo"
	"eyeballas/internal/obs"
)

// cacheKey identifies one rendered footprint. The snapshot generation
// is part of the key, so a hot-swap implicitly invalidates every entry
// rendered from the old artifact without any eviction sweep: stale
// entries simply stop being addressable and age out of the LRU tail.
type cacheKey struct {
	gen uint64
	asn astopo.ASN
	bw  uint64 // math.Float64bits of the bandwidth, so NaN/-0 key safely
}

// renderTable is the server's one record of footprint renders: a map
// from key to entry under one mutex. An entry is either a render in
// flight — its leader renders while later lookups of the key wait on
// it — or a finished body on an LRU list bounded by the cache size.
// A lookup and a leader's finish each take the mutex once, and finish
// turns a render in flight into a cached body in one step, so a lookup
// either joins the render, hits its body or, with the key absent, leads
// a new one: it can never miss the body and then render the key again.
//
// Bodies are immutable once published (handlers write the slice to the
// response without copying). The bound is on entries, not bytes —
// footprint bodies are a few KiB each — but the table keeps exact byte
// accounting of its cached bodies and publishes both through the
// entries/bytes gauges, so the heap the cache holds is visible, not
// inferred.
type renderTable struct {
	mu    sync.Mutex
	max   int       // cached bodies kept; < 1 keeps none, and renders still coalesce
	bytes int64     // Σ len(body) over cached entries
	lru   list.List // cached entries, front = most recent; values are *entry
	items map[cacheKey]*entry

	// entriesG/bytesG mirror the cached entry count and byte total to
	// obs gauges (nil-safe no-ops when metrics or the cache are off).
	// Updated under mu, so the two gauges never disagree.
	entriesG *obs.Gauge
	bytesG   *obs.Gauge
}

// entry is one render of one key. In flight, el is nil and done open;
// finish writes body and err under the table's mutex and then closes
// done, the edge that publishes them to waiters. A cached entry has el
// set and is read under the mutex by the lookup that hits it.
type entry struct {
	key  cacheKey
	done chan struct{}
	body []byte
	err  error
	el   *list.Element // the entry's place on the LRU once cached

	// waiters counts the lookups that joined the render (guarded by the
	// table's mutex) — a diagnostic the coalescing tests poll so they
	// release a render only once every requester is parked on it.
	waiters int
}

func newRenderTable(max int, reg *obs.Registry) *renderTable {
	t := &renderTable{max: max, items: make(map[cacheKey]*entry)}
	if max > 0 {
		t.entriesG = reg.Gauge("eyeball_serve_footprint_cache_entries")
		t.bytesG = reg.Gauge("eyeball_serve_footprint_cache_bytes")
	}
	return t
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
		if e.el != nil {
			t.lru.MoveToFront(e.el)
			return e, cacheHit
		}
		e.waiters++
		return e, cacheCoalesced
	}
	e := &entry{key: key, done: make(chan struct{})}
	t.items[key] = e
	return e, cacheMiss
}

// finish publishes the leader's result and releases the waiters. A body
// is cached, evicting the least recently used past max; an error, or a
// table that keeps nothing, removes the key, so the next lookup leads a
// fresh render instead of meeting a pinned failure.
func (t *renderTable) finish(e *entry, body []byte, err error) {
	t.mu.Lock()
	e.body, e.err = body, err
	if err == nil && t.max > 0 {
		e.el = t.lru.PushFront(e)
		t.bytes += int64(len(body))
		if t.lru.Len() > t.max {
			old := t.lru.Remove(t.lru.Back()).(*entry)
			delete(t.items, old.key)
			t.bytes -= int64(len(old.body))
		}
		t.entriesG.Set(float64(t.lru.Len()))
		t.bytesG.Set(float64(t.bytes))
	} else {
		delete(t.items, e.key)
	}
	t.mu.Unlock()
	close(e.done)
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
