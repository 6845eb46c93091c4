package serve

import (
	"math"
	"sync"
	"time"
)

// Controller is the pure AIMD concurrency-control math, separated from
// the mutex-guarded wrapper so every control decision is unit-testable
// as a function: fold observations into a State with OnComplete, read
// shed advice with RetryAfterSeconds. Nothing in here touches a clock
// or a lock — callers pass monotonic nanoseconds in.
//
// The control law is classic AIMD driven by a latency EWMA against a
// target:
//
//   - latency at or under Target → additive increase: the limit grows
//     by 1/Limit per completion, i.e. +1 per "window" of Limit served
//     requests (the TCP-Reno cadence translated to concurrency).
//   - latency above Target → multiplicative decrease: the limit is
//     scaled by limitDecrease once per completion while overloaded.
//
// The limit is clamped to [minLimit, MaxLimit]; MaxLimit is
// Options.MaxInflight, so an unloaded server sheds only past
// MaxInflight.
type Controller struct {
	// Target is the latency the EWMA is held against.
	Target time.Duration
	// MaxLimit is the ceiling of the adaptive limit.
	MaxLimit float64
}

const (
	// ewmaAlpha is the EWMA smoothing factor for both the latency and
	// the drain-rate estimates (0 < ewmaAlpha ≤ 1; higher = jumpier).
	ewmaAlpha = 0.2
	// minLimit is the floor of the adaptive limit.
	minLimit = 1.0
	// limitDecrease is the multiplicative backoff factor applied while
	// the latency EWMA sits above Target (0 < limitDecrease < 1).
	limitDecrease = 0.75
)

// DefaultController returns the production controller for a given
// ceiling and latency target (250ms when target is not positive).
func DefaultController(maxLimit int, target time.Duration) Controller {
	if target <= 0 {
		target = 250 * time.Millisecond
	}
	return Controller{Target: target, MaxLimit: float64(maxLimit)}
}

// State is the controller's evolving state. The zero value is not
// meaningful; start from Init.
type State struct {
	// Limit is the current concurrency limit (admission compares
	// in-flight against ceil(Limit)).
	Limit float64
	// LatEWMA is the smoothed request latency in seconds (0 until the
	// first completion).
	LatEWMA float64
	// RateEWMA is the smoothed drain rate in completions per second,
	// estimated from inter-completion gaps (0 until two completions).
	RateEWMA float64
	// LastDoneNS is the monotonic timestamp of the last completion in
	// nanoseconds (0 until the first).
	LastDoneNS int64
}

// Init returns the starting state: the limit opens at MaxLimit, so an
// unloaded server admits MaxLimit requests at once.
func (c Controller) Init() State { return State{Limit: c.MaxLimit} }

// OnComplete folds one finished request (service latency lat, finishing
// at monotonic time nowNS) into the state and applies the AIMD step.
func (c Controller) OnComplete(s State, lat time.Duration, nowNS int64) State {
	l := lat.Seconds()
	if s.LatEWMA == 0 {
		s.LatEWMA = l
	} else {
		s.LatEWMA = ewmaAlpha*l + (1-ewmaAlpha)*s.LatEWMA
	}
	if s.LastDoneNS != 0 && nowNS > s.LastDoneNS {
		r := 1e9 / float64(nowNS-s.LastDoneNS)
		if s.RateEWMA == 0 {
			s.RateEWMA = r
		} else {
			s.RateEWMA = ewmaAlpha*r + (1-ewmaAlpha)*s.RateEWMA
		}
	}
	s.LastDoneNS = nowNS

	if s.LatEWMA > c.Target.Seconds() {
		s.Limit *= limitDecrease
	} else {
		s.Limit += 1 / math.Max(s.Limit, 1)
	}
	if s.Limit < minLimit {
		s.Limit = minLimit
	}
	if s.Limit > c.MaxLimit {
		s.Limit = c.MaxLimit
	}
	return s
}

// RetryAfterSeconds derives the Retry-After value for a shed response
// from the observed drain rate: with inflight requests ahead of the
// client and the server draining RateEWMA requests per second, a slot
// frees in about inflight/rate seconds. Clamped to [1, 30], never a
// value so large a client gives up on a healthy server. Before any
// drain-rate estimate exists (cold server) it answers 1.
func (c Controller) RetryAfterSeconds(s State, inflight int) int {
	if s.RateEWMA <= 0 || inflight <= 0 {
		return 1
	}
	wait := int(math.Ceil(float64(inflight) / s.RateEWMA))
	if wait < 1 {
		return 1
	}
	if wait > 30 {
		return 30
	}
	return wait
}

// limiter is the mutex-guarded admission gate around a Controller. A
// nil *limiter admits everything (MaxInflight < 0).
type limiter struct {
	ctl Controller

	mu       sync.Mutex
	st       State
	inflight int
}

func newLimiter(ctl Controller) *limiter {
	return &limiter{ctl: ctl, st: ctl.Init()}
}

// acquire admits the request when in-flight would stay within
// ceil(Limit); on refusal it returns the drain-rate-derived
// Retry-After seconds to advertise.
func (l *limiter) acquire() (ok bool, retryAfter int) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if float64(l.inflight+1) <= math.Ceil(l.st.Limit) {
		l.inflight++
		return true, 0
	}
	return false, l.ctl.RetryAfterSeconds(l.st, l.inflight)
}

// release returns a slot and folds the request's service latency into
// the controller.
func (l *limiter) release(lat time.Duration, nowNS int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inflight--
	l.st = l.ctl.OnComplete(l.st, lat, nowNS)
}

// snapshot reports (limit, inflight) for gauges and tests.
func (l *limiter) snapshot() (limit float64, inflight int) {
	if l == nil {
		return math.Inf(1), 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.Limit, l.inflight
}
