package client

import (
	"time"

	"eyeballas/internal/rng"
)

// baseBackoff is the first retry's backoff ceiling, doubled per retry
// up to Options.MaxBackoff.
const baseBackoff = 50 * time.Millisecond

// backoff computes the sleep before retry number `retry` (1-based)
// using exponential growth with full jitter: uniform in
// [0, min(max, base<<(retry-1))]. Full jitter — rather than jittering
// around the exponential midpoint — de-synchronizes a thundering herd
// of clients that all saw the same failure at the same instant. The
// jitter comes from r, a splitmix64 stream, so a seeded client draws
// an exactly reproducible schedule — the property the chaos e2e harness
// and the backoff unit tests both pin.
func backoff(r *rng.SplitMix, base, max time.Duration, retry int) time.Duration {
	if base <= 0 || retry < 1 {
		return 0
	}
	ceil := base
	for i := 1; i < retry; i++ {
		ceil *= 2
		if ceil >= max {
			ceil = max
			break
		}
	}
	if ceil > max {
		ceil = max
	}
	// Uniform in [0, ceil]: scale 53 random bits into the window.
	return time.Duration(float64(ceil) * r.Float64())
}
