package client

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"eyeballas/internal/benchgate"
)

// The happy-path overhead gate: the resilient client routes a request
// through the full resilience stack (budget, breaker, backoff plumbing)
// while the direct side issues the identical request with bare
// net/http. Both talk to the same loopback server over one keep-alive
// pool, so the ratio isolates the client's bookkeeping.
// BenchmarkPairedClient gates it at 1.05×; BenchmarkClientLookup and
// BenchmarkDirectLookup report each side's cost.

var benchBody = []byte(`{"ip":"10.0.0.1","matched":true,"asn":64500,"prefix":"10.0.0.0/8","country":"IT"}`)

const benchPath = "/v1/lookup?ip=10.0.0.1"

func benchServer(b *testing.B) *httptest.Server {
	b.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(benchBody)
	}))
	b.Cleanup(ts.Close)
	return ts
}

// clientGet returns one lookup through the resilient client, after a
// first call that warms the connection pool.
func clientGet(b *testing.B, ts *httptest.Server) func() {
	c := New(ts.URL, Options{HTTPClient: ts.Client()})
	get := func() {
		if _, err := c.Get(context.Background(), benchPath); err != nil {
			b.Fatal(err)
		}
	}
	get()
	return get
}

// directGet is clientGet with bare net/http.
func directGet(b *testing.B, ts *httptest.Server) func() {
	hc := ts.Client()
	url := ts.URL + benchPath
	get := func() {
		req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	get()
	return get
}

func benchLoop(b *testing.B, get func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}

func BenchmarkClientLookup(b *testing.B) { benchLoop(b, clientGet(b, benchServer(b))) }

func BenchmarkDirectLookup(b *testing.B) { benchLoop(b, directGet(b, benchServer(b))) }

// clientSchedule: a loopback round trip takes about 50 µs, so a round of
// 10 a side lasts about a millisecond, short enough that a burst of host
// noise spoils few rounds, and the median of 2,000 rounds (about 2 s)
// holds within a hundredth from run to run.
var clientSchedule = benchgate.Schedule{Rounds: 2000, Ops: 10}

// BenchmarkPairedClient times the resilient client against bare
// net/http on one server, in alternating rounds. The ratio must stay at
// or under 1.05: the resilience machinery is bookkeeping around a round
// trip, not a tax on it.
func BenchmarkPairedClient(b *testing.B) {
	ts := benchServer(b)
	client, direct := clientGet(b, ts), directGet(b, ts)
	b.ResetTimer()
	if r := benchgate.Ratio(b, clientSchedule, "client/direct", client, direct); r > 1.05 {
		b.Errorf("client/direct %.3f, bound 1.05", r)
	}
}
