package pipeline

import "eyeballas/internal/astopo"

// mix64 is the splitmix64 finalizer — the same full-avalanche mix the
// faults package uses for schedule-free injection decisions.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// reservoirSlot returns the Algorithm R replacement slot for the i-th
// (0-based) sample of an AS: a uniform draw over [0, i] derived purely
// from (asn, i), so reservoir contents are a function of arrival order
// alone — no RNG state, nothing for batching or workers to perturb.
func reservoirSlot(asn astopo.ASN, i int) int {
	h := mix64(uint64(uint32(asn))<<32 | uint64(uint32(i)))
	return int(h % uint64(i+1))
}
