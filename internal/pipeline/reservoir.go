package pipeline

import (
	"eyeballas/internal/astopo"
	"eyeballas/internal/rng"
)

// reservoirSlot returns the Algorithm R replacement slot for the i-th
// (0-based) sample of an AS: a uniform draw over [0, i] derived purely
// from (asn, i), so reservoir contents are a function of arrival order
// alone — no RNG state, nothing for batching or workers to perturb.
func reservoirSlot(asn astopo.ASN, i int) int {
	h := rng.Mix(uint64(uint32(asn))<<32 | uint64(uint32(i)))
	return int(h % uint64(i+1))
}
