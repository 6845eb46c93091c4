package serve

import (
	"io"
	"log/slog"
	"net/http"
	"testing"
	"time"

	"eyeballas/internal/benchgate"
	"eyeballas/internal/trace"
)

// The *Traced benchmarks run the exact hot paths of bench_test.go with
// the full tracing stack enabled — tracer, flight recorder, slow
// capture, and histogram exemplars. BenchmarkPairedTraced gates their
// time against the untraced paths, and TestTracedFootprintHitAllocs
// their allocations and bytes. The *TracedLogged variants add the
// structured access-log line; the slog encode dominates there, so they
// are reported informationally and sit outside the gate (see DESIGN.md
// §11).

func tracedBenchServer(b *testing.B, accessLog bool) http.Handler {
	opts := Options{
		Tracer: trace.New(trace.Options{
			Seed: 42,
			Recorder: trace.NewRecorder(trace.RecorderOptions{
				Recent:        128,
				SlowThreshold: 250 * time.Millisecond,
			}),
		}),
	}
	if accessLog {
		opts.AccessLog = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	s, _, _ := newTestServer(b, opts)
	return s.Handler()
}

func primeFootprint(b *testing.B, h http.Handler) {
	b.Helper()
	serveGet(b, h, "/v1/footprint/64500")()
}

func BenchmarkFootprintCachedTraced(b *testing.B) {
	h := tracedBenchServer(b, false)
	primeFootprint(b, h)
	benchGet(b, h, "/v1/footprint/64500")
}

func BenchmarkLookupTraced(b *testing.B) {
	h := tracedBenchServer(b, false)
	benchGet(b, h, "/v1/lookup?ip=10.1.2.3")
}

// tracedSchedule: a request takes 6–8 µs, so a round of 50 a side lasts
// under a millisecond, short enough that a burst of host noise or a
// collection spoils few rounds, and the median of 2,000 rounds (under
// 2 s a ratio) holds within two hundredths from run to run.
var tracedSchedule = benchgate.Schedule{Rounds: 2000, Ops: 50}

// BenchmarkPairedTraced is tracing's time gate: the traced cache hit and
// lookup against the same requests to an untraced server, in
// alternating rounds. Each ratio must stay at or under 1.14. Tracing
// has a real cost: a traced request carries a 576 B slab share and its
// span's attribute writes, 400–700 ns on a hit of about 6 µs. The bound
// is the worse traced/untraced ratio of the recorded calibration run,
// 1.086 on a hit and 1.131 on a lookup, rounded up (DESIGN.md §11).
func BenchmarkPairedTraced(b *testing.B) {
	traced, plain := tracedBenchServer(b, false), benchServer(b)
	primeFootprint(b, traced)
	primeFootprint(b, plain)
	b.ResetTimer()
	for _, c := range []struct{ unit, path string }{
		{"traced/untraced-hit", "/v1/footprint/64500"},
		{"traced/untraced-lookup", "/v1/lookup?ip=10.1.2.3"},
	} {
		r := benchgate.Ratio(b, tracedSchedule, c.unit, serveGet(b, traced, c.path), serveGet(b, plain, c.path))
		if r > 1.14 {
			b.Errorf("%s %.3f, bound 1.14", c.unit, r)
		}
	}
}

func BenchmarkFootprintCachedTracedLogged(b *testing.B) {
	h := tracedBenchServer(b, true)
	primeFootprint(b, h)
	benchGet(b, h, "/v1/footprint/64500")
}

func BenchmarkLookupTracedLogged(b *testing.B) {
	h := tracedBenchServer(b, true)
	benchGet(b, h, "/v1/lookup?ip=10.1.2.3")
}
