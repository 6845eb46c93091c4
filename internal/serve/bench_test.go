package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// Benchmarks back scripts/bench_serve.sh: the cached-footprint and
// lookup paths are the steady-state hot paths of eyeballserve, and the
// bench gate holds their per-request allocations flat.

func benchServer(b *testing.B) http.Handler {
	s, _, _ := newTestServer(b, Options{})
	return s.Handler()
}

func BenchmarkFootprintCached(b *testing.B) {
	h := benchServer(b)
	// Prime the cache so the loop measures the hit path.
	req := httptest.NewRequest(http.MethodGet, "/v1/footprint/64500", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("prime: %d", rec.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/footprint/64500", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d", rec.Code)
		}
	}
}

// BenchmarkFootprintCold measures the uncached render path (cache
// disabled, every request pays the full KDE). bench_warm.sh compares
// its p50 against BenchmarkFootprintCached to gate the warmed-cache
// win the warmer exists to deliver.
func BenchmarkFootprintCold(b *testing.B) {
	s, _, _ := newTestServer(b, Options{CacheSize: -1})
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/footprint/64500", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d", rec.Code)
		}
	}
}

// TestFootprintColdAllocs pins the allocations of one cold render through
// the full handler — the request BenchmarkFootprintCold makes, with the
// cache disabled so every run pays the KDE, peaks, partitions and city
// mapping. The budget is a tenth of the 1,066 the render made when each
// flood, blur pass and projection allocated afresh.
func TestFootprintColdAllocs(t *testing.T) {
	s, _, _ := newTestServer(t, Options{CacheSize: -1})
	h := s.Handler()
	allocs := testing.AllocsPerRun(50, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/footprint/64500", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d", rec.Code)
		}
	})
	if allocs > 106 {
		t.Errorf("cold footprint render: %.0f allocs/op, budget 106", allocs)
	}
}

// BenchmarkFlightWaiter measures the coalesced-path overhead a waiter
// pays on top of the render it skips: one join (map lookup under the
// group mutex) plus one wait on an already-closed done channel. The
// bench gate holds this at ≤1 alloc/op — coalescing must stay cheaper
// than the render it saves by orders of magnitude.
func BenchmarkFlightWaiter(b *testing.B) {
	g := newFlightGroup()
	key := cacheKey{gen: 1, asn: 64500, bw: math.Float64bits(40)}
	c := &flightCall{done: make(chan struct{}), body: []byte(`{"asn":64500}` + "\n")}
	close(c.done)
	g.mu.Lock()
	g.calls[key] = c
	g.mu.Unlock()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call, leader := g.join(key)
		if leader {
			b.Fatal("join led a fresh call; the completed call left the map")
		}
		body, err := call.wait(ctx)
		if err != nil || len(body) == 0 {
			b.Fatalf("wait: %q, %v", body, err)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	h := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/lookup?ip=10.1.2.3", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d", rec.Code)
		}
	}
}

func BenchmarkASRecord(b *testing.B) {
	h := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/as/64500", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d", rec.Code)
		}
	}
}
