package bgp

import (
	"eyeballas/internal/astopo"
	"eyeballas/internal/faults"
	"eyeballas/internal/ipnet"
)

// WithFaults wraps a Resolver with the plan's origin-miss injector:
// lookups at hit IPs answer "no matching prefix", modelling an
// incomplete RIB (a table missing the covering prefix for part of the
// address space). Decisions are keyed by the IP, so the same plan
// always loses the same addresses regardless of lookup order or worker
// count.
//
// A nil plan or a zero origin-miss rate returns the inner resolver
// unchanged — zero faults is the literal same Resolver.
func WithFaults(r Resolver, plan *faults.Plan) Resolver {
	inj := plan.Injector(faults.OriginMiss)
	if inj == nil {
		return r
	}
	return &faultyResolver{inner: r, miss: inj}
}

// faultyResolver injects origin-lookup misses in front of a resolver.
type faultyResolver struct {
	inner Resolver
	miss  *faults.Injector
}

func (f *faultyResolver) OriginOf(a ipnet.Addr) (astopo.ASN, bool) {
	if f.miss.Hit(uint64(a)) {
		return 0, false
	}
	return f.inner.OriginOf(a)
}
