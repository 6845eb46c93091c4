package serve

import (
	"math"
	"net/http"
	"testing"
	"time"
)

func testController() Controller {
	return Controller{Target: 100 * time.Millisecond, MaxLimit: 64}
}

func TestControllerAdditiveIncrease(t *testing.T) {
	c := testController()
	s := c.Init()
	if s.Limit != 64 {
		t.Fatalf("initial limit %v, want MaxLimit", s.Limit)
	}
	// Fast requests keep the limit pinned at the ceiling.
	now := int64(0)
	for i := 0; i < 100; i++ {
		now += int64(time.Millisecond)
		s = c.OnComplete(s, time.Millisecond, now)
	}
	if s.Limit != c.MaxLimit {
		t.Errorf("healthy limit %v, want clamped at %v", s.Limit, c.MaxLimit)
	}
	if s.LatEWMA > 0.002 {
		t.Errorf("latency EWMA %v, want ~1ms", s.LatEWMA)
	}
}

func TestControllerMultiplicativeDecreaseAndRecovery(t *testing.T) {
	c := testController()
	s := c.Init()
	now := int64(0)

	// Sustained latency over target: each completion scales the limit
	// by limitDecrease until the floor.
	for i := 0; i < 20; i++ {
		now += int64(time.Second)
		s = c.OnComplete(s, time.Second, now)
	}
	if s.Limit != minLimit {
		t.Fatalf("overloaded limit %v, want floor %v", s.Limit, minLimit)
	}

	// Recovery: healthy latencies grow the limit additively — strictly
	// monotonically, and with the 1/Limit step it takes many
	// completions, not one, to re-open.
	prev := s.Limit
	steps := 0
	for s.Limit < c.MaxLimit && steps < 100000 {
		now += int64(10 * time.Millisecond)
		s = c.OnComplete(s, time.Millisecond, now)
		if s.Limit < prev {
			t.Fatalf("limit decreased during recovery: %v -> %v", prev, s.Limit)
		}
		prev = s.Limit
		steps++
	}
	if s.Limit != c.MaxLimit {
		t.Fatalf("limit never recovered to ceiling (stuck at %v)", s.Limit)
	}
	if steps < 50 {
		t.Errorf("recovery took %d completions; additive increase should be gradual", steps)
	}
}

func TestControllerDecreaseIsMultiplicative(t *testing.T) {
	c := testController()
	s := c.Init()
	s = c.OnComplete(s, time.Second, int64(time.Second)) // EWMA jumps over target
	if got, want := s.Limit, 64*limitDecrease; math.Abs(got-want) > 1e-9 {
		t.Errorf("after one overloaded completion limit = %v, want %v", got, want)
	}
}

// TestRetryAfterDerivedFromDrainRate pins the satellite-task contract:
// the shed Retry-After is ceil(inflight / drain rate), clamped to
// [1, 30], with 1 as the cold-start answer — never the old hardcoded 1
// under measurable load.
func TestRetryAfterDerivedFromDrainRate(t *testing.T) {
	c := testController()
	cases := []struct {
		name     string
		rate     float64 // completions per second
		inflight int
		want     int
	}{
		{"cold server, no estimate", 0, 10, 1},
		{"nothing ahead", 12, 0, 1},
		{"drains fast, floor clamp", 1000, 5, 1},
		{"10/s, 20 ahead", 10, 20, 2},
		{"exact division still waits", 4, 8, 2},
		{"rounds up", 3, 10, 4},
		{"slow drain, ceiling clamp", 0.1, 100, 30},
		{"stalled drain, ceiling clamp", 0.001, 1, 30},
	}
	for _, tc := range cases {
		s := State{Limit: 8, RateEWMA: tc.rate}
		if got := c.RetryAfterSeconds(s, tc.inflight); got != tc.want {
			t.Errorf("%s: RetryAfterSeconds(rate=%v, inflight=%d) = %d, want %d",
				tc.name, tc.rate, tc.inflight, got, tc.want)
		}
	}
}

func TestControllerDrainRateEWMA(t *testing.T) {
	c := testController()
	s := c.Init()
	// Completions 100ms apart → drain rate converges toward 10/s.
	now := int64(0)
	for i := 0; i < 50; i++ {
		now += int64(100 * time.Millisecond)
		s = c.OnComplete(s, time.Millisecond, now)
	}
	if s.RateEWMA < 9 || s.RateEWMA > 11 {
		t.Errorf("drain-rate EWMA %v, want ~10/s", s.RateEWMA)
	}
}

func TestLimiterAcquireReleaseAccounting(t *testing.T) {
	l := newLimiter(Controller{Target: time.Second, MaxLimit: 2})
	ok1, _ := l.acquire()
	ok2, _ := l.acquire()
	if !ok1 || !ok2 {
		t.Fatal("limit-2 limiter refused within-limit admissions")
	}
	if ok, ra := l.acquire(); ok {
		t.Fatal("admitted past the limit")
	} else if ra < 1 || ra > 30 {
		t.Fatalf("Retry-After %d outside [1,30]", ra)
	}
	l.release(time.Millisecond, time.Now().UnixNano())
	if ok, _ := l.acquire(); !ok {
		t.Fatal("slot not returned after release")
	}
	if _, inflight := l.snapshot(); inflight != 2 {
		t.Errorf("inflight = %d, want 2", inflight)
	}

	// nil limiter admits everything.
	var nilLim *limiter
	if ok, _ := nilLim.acquire(); !ok {
		t.Error("nil limiter refused")
	}
	nilLim.release(time.Second, 0)
}

// TestLimiterShrinksUnderInjectedLatency drives the real middleware
// with a target so tight every request overshoots it: the latency
// EWMA sits over target, so the admission limit must fall below its
// ceiling — the AIMD loop closing through the real release path.
func TestLimiterShrinksUnderInjectedLatency(t *testing.T) {
	s, _, _ := newTestServer(t, Options{
		MaxInflight:   8,
		TargetLatency: time.Microsecond,
	})
	h := s.Handler()
	for i := 0; i < 10; i++ {
		if rec := get(t, h, "/v1/as/64500"); rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d", i, rec.Code)
		}
	}
	limit, _ := s.lim.snapshot()
	if limit >= 8 {
		t.Errorf("limit %v did not shrink under over-target latency", limit)
	}
	if limit < 1 {
		t.Errorf("limit %v fell under the floor", limit)
	}
}
